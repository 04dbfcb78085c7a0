"""Fixed point sets by reachability and by (translated) Bruhat intervals."""

import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from hesscomb.fixed_points import (
    dimension_report,
    fixed_points_by_interval,
    fixed_points_by_reachability,
    fixed_points_by_translation,
    interval_family,
    reachability_family,
    reducibility_witness,
    schubert_fixed_points,
)
from hesscomb.hessenberg import enumerate_hessenberg, hessenberg_roots
from hesscomb.orders import bruhat_interval, sort_action
from hesscomb.perms import all_perms, compose, identity, longest_element, with_prefix_sets
from hesscomb.reach import reachable_tuples
from hesscomb.weyl import (
    WeylSubset,
    complement,
    enumerate_weyl_subsets,
    max_element,
    weyl_subset_of,
)

H_EXAMPLE = (3, 4, 4, 4)
S_EXAMPLE = WeylSubset(frozenset({(2, 3), (1, 3)}), H_EXAMPLE)


class TestReachabilityRoute:
    def test_longest_element_is_alone(self, no_enumeration):
        sample = random.Random(10).sample(list(enumerate_hessenberg(10)), 50)
        for h in [*enumerate_hessenberg(4), *sample]:
            w0 = longest_element(len(h))
            assert fixed_points_by_reachability(w0, h) == {w0}

    def test_minimal_function_fixes_only_w(self, no_enumeration):
        # with no selected roots every vertex reaches only itself
        w = tuple(random.Random(10).sample(range(1, 11), 10))
        assert fixed_points_by_reachability(w, tuple(range(1, 11))) == {w}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_filter_over_all_permutations(self, n):
        # the definition: the sorted k-prefix of u is among the sorted
        # w-images of the reachable k-tuples, for every k < n
        for h in enumerate_hessenberg(n):
            for w in all_perms(n):
                images = [
                    {sort_action(w, t) for t in reachable_tuples(w, h, k)}
                    for k in range(1, n)
                ]
                want = {
                    u
                    for u in all_perms(n)
                    if all(
                        sort_action(u, tuple(range(1, k + 1))) in images[k - 1]
                        for k in range(1, n)
                    )
                }
                assert fixed_points_by_reachability(w, h) == want

    def test_never_reaches_the_interval_route(self, monkeypatch):
        # cold caches, and every binding of bruhat_interval and max_element
        # in the package fails the test, so the route must stand alone
        import hesscomb.fixed_points
        import hesscomb.orders
        import hesscomb.reach
        import hesscomb.weyl

        def forbidden(*args):
            raise AssertionError("the reachability route used the interval route")

        for module in (hesscomb.orders, hesscomb.fixed_points, hesscomb.reach, hesscomb.weyl):
            for name in ("bruhat_interval", "max_element"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        fixed_points_by_reachability.cache_clear()
        hesscomb.reach.reachable_sets.cache_clear()
        for h in enumerate_hessenberg(4):
            for w in all_perms(4):
                fixed_points_by_reachability(w, h)

    def test_worked_example_equals_interval(self):
        got = fixed_points_by_reachability((2, 3, 1, 4), H_EXAMPLE)
        assert got == bruhat_interval((2, 3, 1, 4), longest_element(4))
        assert len(got) == 12

    def test_full_function_recovers_plain_intervals(self):
        h = (4, 4, 4, 4)
        w0 = longest_element(4)
        for w in all_perms(4):
            assert fixed_points_by_reachability(w, h) == bruhat_interval(w, w0)


class TestIntervalRoute:
    def test_full_roots_at_full_function(self):
        h = (4, 4, 4, 4)
        S = WeylSubset(hessenberg_roots(h), h)
        assert fixed_points_by_interval(S) == {longest_element(4)}

    def test_empty_subset_at_minimal_function(self):
        # the single class is the whole group, its maximum the longest element
        S = WeylSubset(frozenset(), (1, 2, 3, 4))
        assert fixed_points_by_interval(S) == {longest_element(4)}

    def test_worked_example_cross_route(self):
        assert fixed_points_by_interval(S_EXAMPLE) == fixed_points_by_reachability(
            (2, 3, 1, 4), H_EXAMPLE
        )


class TestTranslationRoute:
    def test_class_maximum_specializes(self):
        m = max_element(S_EXAMPLE)
        assert fixed_points_by_translation(m, H_EXAMPLE) == fixed_points_by_interval(
            S_EXAMPLE
        )

    def test_identity_at_minimal_function(self):
        got = fixed_points_by_translation(identity(4), (1, 2, 3, 4))
        assert got == fixed_points_by_reachability(identity(4), (1, 2, 3, 4))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_agrees_with_reachability_everywhere(self, n):
        for h in enumerate_hessenberg(n):
            for v in all_perms(n):
                assert fixed_points_by_translation(v, h) == \
                    fixed_points_by_reachability(v, h)

    def test_rank_ten_without_enumeration(self, no_enumeration):
        # both routes and the Schubert side grow their sets from prefix sets:
        # no scan of the 10! permutations
        rng = random.Random(10)
        for h in rng.sample(list(enumerate_hessenberg(10)), 50):
            w = list(longest_element(10))
            for i in (rng.randrange(9), rng.randrange(9)):
                w[i], w[i + 1] = w[i + 1], w[i]
            w = tuple(w)
            got = fixed_points_by_translation(w, h)
            assert got == fixed_points_by_reachability(w, h)
            assert w in got
            schubert_fixed_points(complement(weyl_subset_of(w, h)))


def _check_families(w, h):
    chl, interval = reachability_family(w, h), interval_family(w, h)
    assert with_prefix_sets(chl) == fixed_points_by_reachability(w, h)
    assert with_prefix_sets(interval) == fixed_points_by_translation(w, h)
    assert chl == interval


@st.composite
def rank_six_or_seven_inputs(draw):
    n = draw(st.integers(min_value=6, max_value=7))
    h = draw(st.sampled_from(list(enumerate_hessenberg(n))))
    return tuple(draw(st.permutations(range(1, n + 1)))), h


class TestFamilies:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_each_family_grows_its_listing(self, n):
        for h in enumerate_hessenberg(n):
            for w in all_perms(n):
                _check_families(w, h)

    @seed(15)
    @given(rank_six_or_seven_inputs())
    def test_sampled_at_ranks_six_and_seven(self, case):
        _check_families(*case)

    def test_interval_family_never_reaches_reachability(self, monkeypatch):
        import hesscomb.fixed_points

        def forbidden(*args):
            raise AssertionError("the interval family used reachability")

        monkeypatch.setattr(hesscomb.fixed_points, "reachable_sets", forbidden)
        rng = random.Random(15)
        for h in rng.sample(list(enumerate_hessenberg(7)), 20):
            w = tuple(rng.sample(range(1, 8), 7))
            assert w in with_prefix_sets(interval_family(w, h))

    def test_reachability_family_never_reaches_the_interval(self, monkeypatch):
        import hesscomb.fixed_points

        def forbidden(*args):
            raise AssertionError("the reachability family used the interval route")

        for name in ("bruhat_family", "bruhat_interval", "max_element"):
            monkeypatch.setattr(hesscomb.fixed_points, name, forbidden)
        rng = random.Random(15)
        for h in rng.sample(list(enumerate_hessenberg(7)), 20):
            w = tuple(rng.sample(range(1, 8), 7))
            assert w in with_prefix_sets(reachability_family(w, h))

    @pytest.mark.parametrize("route", [
        fixed_points_by_reachability, fixed_points_by_translation,
        reachability_family, interval_family,
    ])
    def test_rank_zero_is_rejected(self, route):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            route((), ())


class TestSchubertRoute:
    def test_empty_subset_at_full_function(self):
        h = (4, 4, 4, 4)
        assert schubert_fixed_points(WeylSubset(frozenset(), h)) == {identity(4)}

    def test_full_roots_at_full_function(self):
        h = (4, 4, 4, 4)
        S = WeylSubset(hessenberg_roots(h), h)
        assert schubert_fixed_points(S) == set(all_perms(4))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complement_duality(self, n):
        w0 = longest_element(n)
        for h in enumerate_hessenberg(n):
            for S in enumerate_weyl_subsets(h):
                translated = {
                    compose(w0, u) for u in fixed_points_by_interval(complement(S))
                }
                assert schubert_fixed_points(S) == translated


class TestDimensionReport:
    def test_worked_example(self):
        report = dimension_report((2, 3, 1, 4), H_EXAMPLE)
        assert report == {"total_dim": 5, "cell_dim": 2, "opp_cell_dim": 3}

    def test_second_cell_same_opposite_dimension(self):
        assert dimension_report((2, 3, 4, 1), H_EXAMPLE)["opp_cell_dim"] == 3

    def test_identity(self):
        for h in enumerate_hessenberg(4):
            report = dimension_report(identity(4), h)
            assert report["cell_dim"] == 0
            assert report["opp_cell_dim"] == report["total_dim"]


class TestReducibilityWitness:
    def test_worked_example(self):
        assert reducibility_witness(S_EXAMPLE) == (2, 3, 4, 1)

    def test_full_function_has_none(self):
        for n in (2, 3, 4):
            h = (n,) * n
            for S in enumerate_weyl_subsets(h):
                assert reducibility_witness(S) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_permutohedral_function_has_none(self, n):
        h = tuple(range(2, n + 1)) + (n,)
        for S in enumerate_weyl_subsets(h):
            assert reducibility_witness(S) is None


class TestContainment:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_always_inside_plain_interval(self, n):
        w0 = longest_element(n)
        for h in enumerate_hessenberg(n):
            for v in all_perms(n):
                assert fixed_points_by_reachability(v, h) <= bruhat_interval(v, w0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_strict_below_class_maximum(self, n):
        w0 = longest_element(n)
        for h in enumerate_hessenberg(n):
            for v in all_perms(n):
                if v == max_element(weyl_subset_of(v, h)):
                    continue
                pts = fixed_points_by_reachability(v, h)
                interval = bruhat_interval(v, w0)
                assert pts < interval


def test_invariant_survives_optimized_mode():
    # with a wrong class maximum the length identity breaks; the check must
    # still raise when python -O strips assert statements
    script = textwrap.dedent("""
        import sys
        import hesscomb.fixed_points as fp
        from hesscomb import InvariantError
        if not sys.flags.optimize:
            sys.exit(4)
        fp.max_element = lambda S: tuple(range(1, S.n + 1))
        try:
            fp.fixed_points_by_translation((2, 1, 3), (2, 3, 3))
        except InvariantError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(3)
    """)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "length identity" in proc.stdout


def test_interval_family_invariant_survives_optimized_mode():
    # the interval family shares the translation step, and with it the
    # length identity check, which must raise under python -O
    script = textwrap.dedent("""
        import sys
        import hesscomb.fixed_points as fp
        from hesscomb import InvariantError
        if not sys.flags.optimize:
            sys.exit(4)
        fp.max_element = lambda S: tuple(range(1, S.n + 1))
        try:
            fp.interval_family((2, 1, 3), (2, 3, 3))
        except InvariantError as exc:
            print(exc)
            sys.exit(0)
        sys.exit(3)
    """)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "length identity" in proc.stdout
