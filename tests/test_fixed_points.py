"""Fixed point sets by reachability and by (translated) Bruhat intervals."""

import subprocess
import sys
import textwrap

import pytest

from hesscomb.fixed_points import (
    dimension_report,
    fixed_points_by_interval,
    fixed_points_by_reachability,
    fixed_points_by_translation,
    reducibility_witness,
    schubert_fixed_points,
)
from hesscomb.hessenberg import enumerate_hessenberg, hessenberg_roots
from hesscomb.orders import bruhat_interval
from hesscomb.perms import all_perms, compose, identity, longest_element
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
    def test_longest_element_is_alone(self):
        w0 = longest_element(4)
        for h in enumerate_hessenberg(4):
            assert fixed_points_by_reachability(w0, h) == {w0}

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
