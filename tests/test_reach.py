"""Reachability on oriented incomparability graphs and reachable k-tuples."""

import itertools
import random
import subprocess
import sys
import textwrap

import pytest

from hesscomb.hessenberg import enumerate_hessenberg
from hesscomb.oracles import set_reachable_by_enumeration
from hesscomb.orders import ktuple_leq, sort_action
from hesscomb.perms import all_perms
from hesscomb.reach import (
    is_reachable,
    largest_source,
    reachable_masks,
    reachable_tuples,
    sources,
)
from hesscomb.weyl import (
    WeylSubset,
    class_of,
    enumerate_weyl_subsets,
    max_element,
)

H_EXAMPLE = (3, 4, 4, 4)
S_EXAMPLE = WeylSubset(frozenset({(2, 3), (1, 3)}), H_EXAMPLE)


@pytest.fixture
def worked_orientation():
    return S_EXAMPLE


class TestIsReachable:
    def test_every_vertex_reaches_itself(self, worked_orientation):
        for j in range(1, 5):
            assert is_reachable(j, j, worked_orientation)

    def test_single_upward_arc(self, worked_orientation):
        assert is_reachable(3, 4, worked_orientation)

    def test_downward_arc_does_not_count(self, worked_orientation):
        # the edge between 1 and 3 points 3 -> 1, and no increasing path
        # from 1 reaches 3
        assert not is_reachable(1, 3, worked_orientation)

    def test_two_step_path(self, worked_orientation):
        # 1 -> 2 -> 4
        assert is_reachable(1, 4, worked_orientation)

    def test_reversed_arguments_are_false(self, worked_orientation):
        assert not is_reachable(4, 3, worked_orientation)

    def test_out_of_range_rejected(self, worked_orientation):
        with pytest.raises(ValueError):
            is_reachable(0, 3, worked_orientation)
        with pytest.raises(ValueError):
            is_reachable(1, 5, worked_orientation)

    def test_matches_path_enumeration(self):
        # exhaustive increasing-path search as the independent route
        for h in enumerate_hessenberg(4):
            for S in enumerate_weyl_subsets(h):
                arcs = S.arcs()
                for j in range(1, 5):
                    for i in range(j, 5):
                        found = any(
                            all((p[x], p[x + 1]) in arcs for x in range(len(p) - 1))
                            for r in range(5)
                            for mid in itertools.combinations(range(j + 1, i), r)
                            for p in [(j, *mid, i)]
                        ) or i == j
                        assert is_reachable(j, i, S) == found


class TestSources:
    def test_worked_example(self, worked_orientation):
        assert sources(worked_orientation) == {3}
        assert largest_source(worked_orientation) == 3

    def test_all_upward_has_source_one(self):
        S = WeylSubset(frozenset(), H_EXAMPLE)
        assert 1 in sources(S)

    def test_isolated_vertices_are_sources(self):
        S = WeylSubset(frozenset(), (1, 2, 3, 4))
        assert sources(S) == {1, 2, 3, 4}

    def test_cyclic_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            sources(WeylSubset(roots=frozenset({(1, 3)}), h=(3, 3, 3)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sources_are_exactly_positions_of_one(self, n):
        # each class member puts 1 at a source, and every source is hit
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                realized = {w.index(1) + 1 for w in class_of(S)}
                assert realized == sources(S)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_largest_source_reaches_everything_above(self, n):
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                k = largest_source(S)
                assert all(is_reachable(k, i, S) for i in range(k + 1, n + 1))


class TestSetReachable:
    """Set reachability from {1, ..., k}, as reachable_tuples decides it."""

    def test_identity_pairing(self, worked_orientation):
        # {1, ..., k} reaches itself and is the lexicographically first set
        w = max_element(worked_orientation)
        for k in range(1, 4):
            assert reachable_tuples(w, H_EXAMPLE, k)[0] == tuple(range(1, k + 1))

    def test_worked_example(self, worked_orientation):
        pairs = reachable_tuples(max_element(worked_orientation), H_EXAMPLE, 2)
        assert (2, 4) in pairs
        assert (3, 4) not in pairs

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matching_agrees_with_pairing_oracle(self, n):
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                w = max_element(S)
                for k in range(1, n):
                    got = reachable_tuples(w, h, k)
                    for T in itertools.combinations(range(1, n + 1), k):
                        assert (T in got) == \
                            set_reachable_by_enumeration(range(1, k + 1), T, S)

    @pytest.mark.parametrize("n", [6, 7])
    def test_pass_agrees_with_pairing_oracle_on_a_sample(self, n):
        # ranks 2-5 are exhaustive above; here 40 seeded classes per rank,
        # every k-set at every k against the pairings of the oracle
        rng = random.Random(19 + n)
        hs = list(enumerate_hessenberg(n))
        for _ in range(40):
            h = rng.choice(hs)
            S = rng.choice(enumerate_weyl_subsets(h))
            levels = reachable_masks(S)
            assert levels[0] == {0}
            assert levels[n] == {(2 << n) - 2}
            for k in range(1, n):
                got = {T for T in itertools.combinations(range(1, n + 1), k)
                       if sum(1 << v for v in T) in levels[k]}
                assert len(got) == len(levels[k])
                for T in itertools.combinations(range(1, n + 1), k):
                    assert (T in got) == set_reachable_by_enumeration(range(1, k + 1), T, S)


class TestReachableTuples:
    def test_initial_segment_always_included(self):
        for h in enumerate_hessenberg(4):
            for w in all_perms(4):
                for k in range(1, 4):
                    assert tuple(range(1, k + 1)) in reachable_tuples(w, h, k)

    def test_full_function_reduces_to_sorted_image_comparison(self):
        h = (4, 4, 4, 4)
        for w in all_perms(4):
            for k in range(1, 4):
                base = sort_action(w, tuple(range(1, k + 1)))
                want = tuple(
                    t
                    for t in itertools.combinations(range(1, 5), k)
                    if ktuple_leq(base, sort_action(w, t))
                )
                assert reachable_tuples(w, h, k) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_formula_route_for_all_class_members(self, n):
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                m = max_element(S)
                for k in range(1, n):
                    base = sort_action(m, tuple(range(1, k + 1)))
                    want = tuple(
                        t
                        for t in itertools.combinations(range(1, n + 1), k)
                        if ktuple_leq(base, sort_action(m, t))
                    )
                    for w in class_of(S):
                        assert reachable_tuples(w, h, k) == want

    def test_one_level_stays_small_at_large_rank(self):
        # with no edges at rank 24 only {1, ..., k} is reachable; its members
        # are read off its set bits, where a table over every mask of the
        # rank would not fit in the limit
        script = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
            from hesscomb.reach import reachable_sets
            from hesscomb.weyl import WeylSubset
            print(reachable_sets(WeylSubset(frozenset(), tuple(range(1, 25))), 12))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{(tuple(range(1, 13)),)}\n"

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            reachable_tuples((2, 3, 1, 4), H_EXAMPLE, 4)
        with pytest.raises(ValueError):
            reachable_tuples((2, 3, 1, 4), H_EXAMPLE, 0)


class TestReachabilityOrderCharacterization:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reachable_iff_values_increase_for_class_maximum(self, n):
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                m = max_element(S)
                for j in range(1, n + 1):
                    for i in range(j, n + 1):
                        assert is_reachable(j, i, S) == (m[j - 1] <= m[i - 1])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reachable_forces_increase_for_all_members(self, n):
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                for w in class_of(S):
                    for j in range(1, n + 1):
                        for i in range(j, n + 1):
                            if is_reachable(j, i, S):
                                assert w[j - 1] <= w[i - 1]
