"""Weyl-type subsets, the class partition, and acyclic orientations."""

import itertools
import json
import math
import random
import re
import subprocess
import sys
import textwrap

import pytest

from hesscomb import cli, weyl
from hesscomb.hessenberg import (
    enumerate_hessenberg,
    hessenberg_length,
    hessenberg_roots,
    total_dimension,
)
from hesscomb.oracles import acyclic_orientations_by_enumeration, class_by_filter
from hesscomb.orders import weak_left_leq
from hesscomb.perms import all_perms, compose, identity, inversion_set, longest_element
from hesscomb.reach import (
    is_reachable,
    largest_source,
    reachability_table,
    reachable_masks,
    reachable_sets,
    sources,
)
from hesscomb.weyl import (
    InvariantError,
    WeylSubset,
    class_of,
    class_size,
    complement,
    enumerate_weyl_subsets,
    find_closure_violation,
    induced_subset,
    is_acyclic,
    is_weyl_type,
    list_classes,
    make_weyl_subset,
    max_element,
    min_element,
    weyl_subset_of,
)

H_EXAMPLE = (3, 4, 4, 4)
S_EXAMPLE = frozenset({(2, 3), (1, 3)})


def _orientation_count(h):
    """prod(1 + a_i), where a_i counts the earlier neighbours j < i of i."""
    n = len(h)
    return math.prod(1 + sum(1 for j in range(1, i) if h[j - 1] >= i) for i in range(1, n + 1))


class TestWeylType:
    def test_empty_and_full_are_weyl(self):
        assert is_weyl_type(frozenset(), H_EXAMPLE)
        assert is_weyl_type(hessenberg_roots(H_EXAMPLE), H_EXAMPLE)

    def test_worked_example(self):
        assert is_weyl_type(S_EXAMPLE, H_EXAMPLE)

    def test_closure_failure(self):
        # (1,2) + (2,3) = (1,3) is selected but absent
        assert not is_weyl_type({(1, 2), (2, 3)}, H_EXAMPLE)

    def test_root_outside_selection_is_an_error(self):
        with pytest.raises(ValueError, match="not selected"):
            is_weyl_type({(1, 4)}, H_EXAMPLE)

    def test_make_reports_violation(self):
        with pytest.raises(ValueError, match=r"\(1,2\) \+ \(2,3\)"):
            make_weyl_subset({(1, 2), (2, 3)}, H_EXAMPLE)

    def test_every_restricted_inversion_set_is_weyl(self):
        for h in enumerate_hessenberg(4):
            for w in all_perms(4):
                assert is_weyl_type(inversion_set(w) & hessenberg_roots(h), h)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_subset_of_the_selected_roots(self, n):
        # the closure test against root addition written out here, and
        # against the acyclicity of the orientation (the module docstring's
        # theorem); a returned violation must be a real one
        for h in enumerate_hessenberg(n):
            allowed = hessenberg_roots(h)
            for size in range(len(allowed) + 1):
                for subset in map(frozenset, itertools.combinations(sorted(allowed), size)):
                    sides = {"subset": subset, "complement": allowed - subset}
                    closed = all(
                        (a, d) in part
                        for part in sides.values()
                        for a, b in part
                        for c, d in part
                        if b == c and (a, d) in allowed
                    )
                    assert is_weyl_type(subset, h) == closed
                    assert is_acyclic(WeylSubset(subset, h)) == closed
                    violation = find_closure_violation(subset, h)
                    if violation is not None:
                        (a, b), (c, d), side = violation
                        part = sides[side]
                        assert b == c and (a, b) in part and (c, d) in part
                        assert (a, d) in allowed and (a, d) not in part

    def test_closure_check_stays_small_at_large_rank(self):
        # the closure test walks each vertex's roots, so rank 25 and the
        # graph command at rank 30 stay within a small memory and time
        # budget; a table over every mask of n bits would not
        script = textwrap.dedent("""
            import io
            import json
            import resource
            from contextlib import redirect_stdout
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
            from hesscomb import cli
            from hesscomb.hessenberg import hessenberg_roots
            from hesscomb.perms import longest_element
            from hesscomb.weyl import (find_closure_violation, is_weyl_type,
                                       make_weyl_subset, weyl_subset_of)
            h = (25,) * 25
            everything = hessenberg_roots(h)
            checks = [
                make_weyl_subset((), h).roots == frozenset(),
                is_weyl_type(everything, h),
                weyl_subset_of(longest_element(25), h).roots == everything,
                find_closure_violation({(1, 2), (2, 3)}, h) == ((1, 2), (2, 3), "subset"),
            ]
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["graph", "--h", ",".join(["30"] * 30), "--S", "",
                                 "--format", "json"])
            checks.append(code == 0 and len(json.loads(out.getvalue())["arcs"]) == 435)
            print(json.dumps(checks))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [True] * 5


class TestSubsetOf:
    def test_identity_gives_empty(self):
        assert weyl_subset_of(identity(4), H_EXAMPLE).roots == frozenset()

    def test_worked_examples(self):
        assert weyl_subset_of((2, 3, 1, 4), H_EXAMPLE).roots == {(1, 3), (2, 3)}
        assert weyl_subset_of((2, 3, 4, 1), H_EXAMPLE).roots == {(2, 4), (3, 4)}

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            weyl_subset_of((1, 2, 3), H_EXAMPLE)

    @pytest.mark.parametrize("operation", [
        lambda h: weyl_subset_of((2, 1, 3), h), enumerate_weyl_subsets, list_classes,
    ], ids=["weyl_subset_of", "enumerate_weyl_subsets", "list_classes"])
    @pytest.mark.parametrize("h, diagnostic", [
        ((3, 2, 3), "not nondecreasing at position 1"), ((2, 3, 4), r"h\(3\) = 4 exceeds n = 3"),
    ], ids=["decreasing", "above-n"])
    def test_non_hessenberg_functions_are_rejected(self, operation, h, diagnostic):
        # the growth's bound a(v) and the selected masks assume a valid h
        with pytest.raises(ValueError, match=diagnostic):
            operation(h)


class TestEnumerateSubsets:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_function_gives_factorial(self, n):
        assert len(enumerate_weyl_subsets((n,) * n)) == math.factorial(n)

    def test_path_graph(self):
        assert len(enumerate_weyl_subsets((2, 3, 4, 4))) == 8

    def test_worked_example_count(self):
        assert len(enumerate_weyl_subsets(H_EXAMPLE)) == 18

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_orientation_enumeration(self, n):
        # the oracle's set, listed in the order of the sorted root lists
        for h in enumerate_hessenberg(n):
            oracle = acyclic_orientations_by_enumeration(h)
            assert enumerate_weyl_subsets(h) == tuple(sorted(oracle, key=lambda S: sorted(S.roots)))

    def test_matches_restricted_inversion_sets_at_rank_seven(self):
        # the image of S_7 under w -> N(w) & R; the orientation oracle stops
        # at 20 edges, so at rank 7 only this checks the grown sets
        rng = random.Random(7)
        for h in rng.sample(list(enumerate_hessenberg(7)), 20):
            allowed = hessenberg_roots(h)
            image = {inversion_set(w) & allowed for w in all_perms(7)}
            assert {S.roots for S in enumerate_weyl_subsets(h)} == image


class TestOrientation:
    def test_worked_example_arcs(self):
        S = WeylSubset(S_EXAMPLE, H_EXAMPLE)
        assert S.arcs() == {(1, 2), (3, 1), (3, 2), (2, 4), (3, 4)}

    def test_path_example_arcs(self):
        S = make_weyl_subset({(1, 2)}, (2, 3, 4, 4))
        assert S.arcs() == {(2, 1), (2, 3), (3, 4)}

    def test_empty_subset_points_everything_upward(self):
        S = WeylSubset(frozenset(), H_EXAMPLE)
        assert S.arcs() == hessenberg_roots(H_EXAMPLE)

    def test_orientation_is_built_once_per_subset(self):
        # a fresh S, with the caches keyed on S emptied so every call needs
        # the orientation; the profile hook counts runs of the body of
        # WeylSubset.before, whatever kind of attribute wraps it
        for cache in (max_element, class_of, reachability_table):
            cache.cache_clear()
        S = WeylSubset(S_EXAMPLE, H_EXAMPLE)
        attribute = vars(WeylSubset)["before"]
        body = getattr(attribute, "func", None) or attribute.fget
        builds = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is body.__code__:
                builds.append(frame.f_code)

        sys.setprofile(profile)
        try:
            class_size(S), max_element(S), min_element(S), class_of(S)
            reachability_table(S), sources(S)
        finally:
            sys.setprofile(None)
        assert len(builds) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_after_is_before_transposed(self, n):
        # every subset of R at rank 3, acyclic or not, and each Weyl type one above
        for h in enumerate_hessenberg(n):
            roots = sorted(hessenberg_roots(h))
            subsets = ([WeylSubset(frozenset(c), h) for k in range(len(roots) + 1)
                        for c in itertools.combinations(roots, k)] if n <= 3
                       else enumerate_weyl_subsets(h))
            for S in subsets:
                after = [0] * (n + 1)
                for u, v in S.arcs():
                    after[u] |= 1 << v
                assert S.after == tuple(after)

    def test_cyclic_orientation_rejected(self):
        # 1 -> 2 -> 3 -> 1 on the triangle
        cyclic = WeylSubset(roots=frozenset({(1, 3)}), h=(3, 3, 3))
        assert not is_acyclic(cyclic)

    @pytest.mark.parametrize("operation", [class_of, min_element, max_element, class_size])
    def test_cyclic_orientation_has_no_class(self, operation):
        # a hand-built S is input, so its cycle is a ValueError
        cyclic = WeylSubset(roots=frozenset({(1, 3)}), h=(3, 3, 3))
        with pytest.raises(ValueError, match="directed cycle"):
            operation(cyclic)

    @pytest.mark.parametrize("operation", [
        class_of, min_element, max_element, class_size, reachability_table, reachable_masks,
        sources, largest_source,
        pytest.param(lambda S: is_reachable(1, 2, S), id="is_reachable"),
        pytest.param(lambda S: reachable_sets(S, 1), id="reachable_sets"),
        pytest.param(lambda S: induced_subset(S, 1), id="induced_subset"),
    ])
    @pytest.mark.parametrize("roots, h, stray", [
        ({(1, 3)}, (2, 3, 3), (1, 3)),  # acyclic on the selected roots, which ignore it
        ({(1, 2), (2, 4)}, (2, 3, 3, 4), (2, 4)),
        ({(1, 3)}, (1, 2, 3), (1, 3)),  # h selects no root at all
        ({(0, 1)}, (2, 2), (0, 1)),
    ])
    def test_stray_root_has_no_class(self, operation, roots, h, stray):
        # no operation can be handed such an S: building it raises
        with pytest.raises(ValueError, match=re.escape(f"root {stray} is not selected")):
            operation(WeylSubset(roots=frozenset(roots), h=h))

    def test_produced_orientations_are_acyclic(self):
        for h in enumerate_hessenberg(4):
            for S in enumerate_weyl_subsets(h):
                assert is_acyclic(S)


class TestExtremes:
    def test_worked_example_max(self):
        assert max_element(WeylSubset(S_EXAMPLE, H_EXAMPLE)) == (2, 3, 1, 4)

    def test_full_roots_give_longest_element(self):
        for n in (2, 3, 4):
            h = (n,) * n
            S = WeylSubset(hessenberg_roots(h), h)
            assert max_element(S) == longest_element(n)
            assert min_element(S) == longest_element(n)

    def test_empty_subset_min_is_identity(self):
        for h in enumerate_hessenberg(4):
            assert min_element(WeylSubset(frozenset(), h)) == identity(4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_brute_force(self, n):
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                cls = class_by_filter(S)
                top = max_element(S)
                bottom = min_element(S)
                assert top in cls and bottom in cls
                assert all(weak_left_leq(v, top) for v in cls)
                assert all(weak_left_leq(bottom, v) for v in cls)


class TestClasses:
    def test_singletons_at_full_function(self):
        h = (4, 4, 4, 4)
        for S in enumerate_weyl_subsets(h):
            assert len(class_of(S)) == 1

    def test_everything_at_minimal_function(self):
        h = (1, 2, 3, 4)
        S = WeylSubset(frozenset(), h)
        assert class_of(S) == set(all_perms(4))
        assert max_element(S) == longest_element(4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_partition(self, n):
        for h in enumerate_hessenberg(n):
            union = set()
            sizes = 0
            for S in enumerate_weyl_subsets(h):
                cls = class_of(S)
                sizes += len(cls)
                union |= cls
            assert sizes == math.factorial(n)
            assert union == set(all_perms(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_definition_filter(self, n):
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                assert class_of(S) == class_by_filter(S)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_longest_element_swaps_complementary_classes(self, n):
        w0 = longest_element(n)
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                flipped = {compose(w0, w) for w in class_of(S)}
                assert flipped == class_of(complement(S))
                assert min_element(S) == compose(w0, max_element(complement(S)))

    def test_rank_ten_without_enumeration(self, no_enumeration):
        # the class walk is output-sensitive: no scan of the 10! permutations
        h = (4, 5, 6, 7, 8, 9, 10, 10, 10, 10)
        rng = random.Random(10)
        for _ in range(50):
            w = tuple(rng.sample(range(1, 11), 10))
            S = weyl_subset_of(w, h)
            cls = class_of(S)
            assert {w, min_element(S), max_element(S)} <= cls
            for v in cls:
                assert inversion_set(v) & hessenberg_roots(h) == S.roots

    def test_rank_ten_listing_without_enumeration(self, no_enumeration):
        # the listing grows orientations: no scan of the 10! permutations
        rng = random.Random(10)
        h = _rank_ten_h(rng)
        listing = enumerate_weyl_subsets(h)
        assert len(listing) == _orientation_count(h)
        for S in listing:
            assert inversion_set(max_element(S)) & hessenberg_roots(h) == S.roots
            assert inversion_set(min_element(S)) & hessenberg_roots(h) == S.roots
        # the classes partition 10!, so only a few are walked
        for S in rng.sample(listing, 3):
            cls = class_of(S)
            assert {min_element(S), max_element(S)} <= cls
            for v in cls:
                assert inversion_set(v) & hessenberg_roots(h) == S.roots

    def test_rank_ten_listing_sizes_without_enumeration(self, no_enumeration):
        # the growth counts every class of the same rank-ten h, walking no ideals
        rng = random.Random(10)
        h = _rank_ten_h(rng)
        listing = list_classes(h)
        assert sum(size for _, size, _, _ in listing) == math.factorial(10)
        for image, size, _, _ in rng.sample(listing, 3):
            assert size == class_size(WeylSubset(frozenset(image), h))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_size_counts_the_class(self, n):
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                assert class_size(S) == len(class_of(S))

    def test_rank_ten_size_without_enumeration(self, no_enumeration):
        # no edges, so one class of all 10! permutations, counted on 2^10 ideals
        h = tuple(range(1, 11))
        assert class_size(WeylSubset(frozenset(), h)) == math.factorial(10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_min_has_smallest_inversion_set(self, n):
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                low = inversion_set(min_element(S))
                for y in all_perms(n):
                    if S.roots <= inversion_set(y):
                        assert low <= inversion_set(y)


def _rank_ten_h(rng):
    """A rank-ten h with 200 to 500 classes, drawn from rng."""
    return rng.choice([h for h in enumerate_hessenberg(10) if 200 <= _orientation_count(h) <= 500])


def _poincare(h):
    """Coefficients of the sum over all w of q^(restricted length of w)."""
    coeffs = [0] * (total_dimension(h) + 1)
    for w in all_perms(len(h)):
        coeffs[hessenberg_length(w, h)] += 1
    return coeffs


def _poincare_from_classes(h):
    """The same coefficients as _poincare, as the sum over S of
    class_size(S) q^|S|."""
    coeffs = [0] * (total_dimension(h) + 1)
    for S in enumerate_weyl_subsets(h):
        coeffs[len(S.roots)] += class_size(S)
    return coeffs


class TestCounts:
    """Counts the class listing must match, each found without it."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_class_count_is_acyclic_orientation_count(self, n):
        # the incomparability graph has the perfect elimination order 1..n,
        # so it has prod(1 + a_i) acyclic orientations (Stanley 1973)
        for h in enumerate_hessenberg(n):
            assert len(enumerate_weyl_subsets(h)) == _orientation_count(h)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_poincare_polynomial_is_palindromic(self, n):
        # the regular semisimple Hessenberg variety is smooth and projective
        # with an affine paving (De Mari-Procesi-Shayman 1992)
        for h in enumerate_hessenberg(n):
            coeffs = _poincare(h)
            assert coeffs == coeffs[::-1]
            assert sum(coeffs) == math.factorial(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_poincare_polynomial_from_class_sizes(self, n):
        # the restricted length is |S| on the whole class of S
        for h in enumerate_hessenberg(n):
            assert _poincare_from_classes(h) == _poincare(h)

    def test_class_count_at_rank_eight(self):
        # a seeded sample: the largest sampled h has 5,760 classes
        for h in random.Random(8).sample(list(enumerate_hessenberg(8)), 60):
            assert len(enumerate_weyl_subsets(h)) == _orientation_count(h)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_class_total_is_double_factorial(self, n):
        # an observation with no source at hand: summed over every h of
        # rank n, prod(1 + a_i) is (2n - 1)!! = 1 * 3 * ... * (2n - 1)
        total = sum(map(_orientation_count, enumerate_hessenberg(n)))
        assert total == math.prod(range(1, 2 * n, 2))

    def test_poincare_polynomial_from_class_sizes_at_rank_seven(self):
        # a seeded sample: all 429 h take several seconds
        for h in random.Random(7).sample(list(enumerate_hessenberg(7)), 60):
            coeffs = _poincare_from_classes(h)
            assert coeffs == coeffs[::-1]
            assert sum(coeffs) == math.factorial(7)


class TestInducedSubset:
    def test_worked_example(self):
        S = WeylSubset(S_EXAMPLE, H_EXAMPLE)
        reduced = induced_subset(S, 3)
        assert reduced.roots == frozenset()
        assert reduced.h == (2, 3, 3)

    def test_empty_stays_empty(self):
        S = WeylSubset(frozenset(), H_EXAMPLE)
        assert induced_subset(S, 2).roots == frozenset()

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            induced_subset(WeylSubset(S_EXAMPLE, H_EXAMPLE), 0)

    def test_a_cycle_that_survives_the_deletion_is_bad_input(self):
        # 3 -> 1 against 1 -> 2 -> 3; deleting 4 keeps that cycle
        S = WeylSubset(frozenset({(1, 3)}), (4, 4, 4, 4))
        with pytest.raises(ValueError, match=r"S = \[\(1, 3\)\] has a directed cycle"):
            induced_subset(S, 4)
        # deleting a vertex of the cycle leaves a Weyl-type subset
        assert induced_subset(S, 2) == WeylSubset(frozenset({(1, 2)}), (3, 3, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_orientation_restriction(self, n):
        # deleting a vertex from the oriented graph and reading the subset
        # off the surviving arcs must agree with the root relabeling
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                full_arcs = S.arcs()
                for k in range(1, n + 1):
                    survived = {
                        tuple(v - 1 if v > k else v for v in arc)
                        for arc in full_arcs
                        if k not in arc
                    }
                    assert induced_subset(S, k).arcs() == survived

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_class_induction_at_sources(self, n):
        # members of the reduced class, lifted to fix 1 and multiplied by
        # the front cycle of a source, are exactly the members of the
        # original class that place 1 at that source
        from hesscomb.perms import front_cycle
        from hesscomb.reach import sources

        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                cls = class_of(S)
                for k in sorted(sources(S)):
                    reduced_cls = class_of(induced_subset(S, k))
                    cyc = front_cycle(n, k)
                    for y in all_perms(n - 1):
                        lift = (1,) + tuple(v + 1 for v in y)
                        assert (compose(lift, cyc) in cls) == (y in reduced_cls)


def test_listing_makes_no_inversion_set_call(capsys, monkeypatch):
    # a listing reads N(w) & R off the grown orders' positions, and the
    # class minimum checks its roots the same way
    def forbidden(w):
        raise AssertionError(f"inversion_set({w}) was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hesscomb" and hasattr(module, "inversion_set"):
            monkeypatch.setattr(module, "inversion_set", forbidden)
    enumerate_weyl_subsets.cache_clear()
    max_element.cache_clear()
    assert cli.main(["weyl-subsets", "--h", "7,7,7,7,7,7,7"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 5040
    assert all(r["class_size"] == 1 and r["w_max"] == r["z_min"] for r in records)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_listing_matches_the_per_class_operations(n):
    # each record read off the grown orders equals the per-class peels and
    # order-ideal count it stands in for
    for h in enumerate_hessenberg(n):
        listing = list_classes(h)
        subsets = enumerate_weyl_subsets(h)
        assert [image for image, _, _, _ in listing] == [tuple(sorted(S.roots)) for S in subsets]
        for (_, size, w_max, z_min), S in zip(listing, subsets):
            assert (size, w_max, z_min) == (class_size(S), max_element(S), min_element(S))


@pytest.mark.parametrize("h", [(7,) * 7, (3, 4, 5, 6, 7, 7, 7)])
def test_listing_walks_no_order_ideals(monkeypatch, h):
    # every size is the growth's count; (7, ..., 7) never retires a vertex
    # before the last, (3, 4, 5, 6, 7, 7, 7) retires one at each of c = 3..6
    def forbidden(S):
        raise AssertionError(f"_ideal_counts({S}) was called")

    monkeypatch.setattr(weyl, "_ideal_counts", forbidden)
    listing = list_classes(h)
    assert len(listing) == _orientation_count(h)
    assert sum(size for _, size, _, _ in listing) == math.factorial(7)


def test_listing_peels_nothing_and_leaves_max_element_cache_empty(capsys, monkeypatch):
    # every maximum is a grown order and every minimum is read off the
    # complement's, so a listing neither peels nor fills max_element's cache
    def forbidden(before, after):
        raise AssertionError(f"_peel({list(before)}, {list(after)}) was called")

    monkeypatch.setattr(weyl, "_peel", forbidden)
    max_element.cache_clear()
    assert cli.main(["weyl-subsets", "--h", "7,7,7,7,7,7,7"]) == 0
    assert max_element.cache_info().currsize == 0
    assert len(json.loads(capsys.readouterr().out)) == 5040


def test_class_invariants_survive_optimized_mode():
    # min_element checks what the peel gives it, every subset built or grown
    # is re-checked for Weyl type, a listing checks each grown order once, as
    # a maximum, and its sizes by pair and in sum; every check must still
    # raise when python -O strips asserts
    script = textwrap.dedent("""
        import json
        import sys
        from hesscomb import weyl
        from hesscomb.weyl import InvariantError, WeylSubset
        if not sys.flags.optimize:
            sys.exit(4)
        caught = []

        def attempt(operation, S):
            try:
                operation(S)
            except InvariantError as exc:
                caught.append(str(exc))

        peel = weyl._peel
        # min_element checks its peel as the maximum of the complement; here
        # it gets the max peel of S reversed, the order of the identity
        weyl._peel = lambda before, after: peel(after, before)[::-1]
        attempt(weyl.min_element, WeylSubset(frozenset(), (1, 2, 3)))
        weyl._peel = lambda before, after: list(range(len(before) - 1, 0, -1))
        attempt(weyl.min_element, WeylSubset(frozenset({(1, 2)}), (2, 2)))
        # a closure test that always fails reaches the closure checks; the
        # empty S is acyclic, so induced_subset blames itself, not S
        weyl._closure_violation = lambda inside, selected: ((1, 2), (2, 3), "subset")
        attempt(lambda S: weyl.induced_subset(S, 4), WeylSubset(frozenset(), (3, 3, 3, 4)))
        attempt(lambda h: weyl.weyl_subset_of((1, 2), h), (2, 2))
        attempt(weyl.enumerate_weyl_subsets, (2, 2))
        # h = (1, 2) has one class, S_2 with maximum (2, 1); the identity
        # order is another topological order of it
        weyl._grow = lambda h: [((), (1, 2), (0, 0, 0), 2)]
        attempt(weyl.list_classes, (1, 2))
        # h = (2, 2): the order (1, 2) given to the complement {(1, 2)} of
        # the empty S lacks its root (1, 2)
        weyl._grow = lambda h: [((), (1, 2), (0, 0, 0), 1), (((1, 2),), (1, 2), (0, 4, 0), 1)]
        attempt(weyl.list_classes, (2, 2))
        # h = (2, 2) with the two grown orders swapped: the first record's
        # order (2, 1) has the root (1, 2) that its subset lacks, and its own
        # check catches it before its complement's record is read
        weyl._grow = lambda h: [((), (2, 1), (0, 0, 0), 1), (((1, 2),), (1, 2), (0, 4, 0), 1)]
        attempt(weyl.list_classes, (2, 2))
        weyl._grow = lambda h: [((), (1, 2), (0, 0, 0), 1)]  # no complement
        attempt(weyl.list_classes, (2, 2))
        # h = (2, 2) has two singleton classes; sizes that differ between the
        # complementary pair, or that are equal but do not add up to 2!
        weyl._grow = lambda h: [((), (1, 2), (0, 0, 0), 2), (((1, 2),), (2, 1), (0, 4, 0), 1)]
        attempt(weyl.list_classes, (2, 2))
        weyl._grow = lambda h: [((), (1, 2), (0, 0, 0), 2), (((1, 2),), (2, 1), (0, 4, 0), 2)]
        attempt(weyl.list_classes, (2, 2))
        print(json.dumps(caught))
    """)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "class maximum [1, 2, 3] fails the maximality criterion",
        "class maximum [2, 1] does not have the roots of its subset",
        "S with vertex 4 deleted is not of Weyl type",
        "N([1, 2]) & roots of h = [2, 2] is not of Weyl type",
        "grown [(1, 2)] for h = [2, 2] is not of Weyl type",
        "class maximum [1, 2] fails the maximality criterion",
        "class maximum [1, 2] does not have the roots of its subset",
        "class maximum [2, 1] does not have the roots of its subset",
        "the complement of [] for h = [2, 2] was not grown",
        "the classes of [] and its complement for h = [2, 2] have sizes 2 and 1",
        "the class sizes for h = [2, 2] add up to 4, not 2! = 2",
    ]
