"""Hessenberg functions, their root sets, graphs, and vertex deletion."""

import math
import re

import pytest

import hesscomb as hc
from hesscomb.hessenberg import (
    delete_vertex,
    enumerate_hessenberg,
    hessenberg_length,
    hessenberg_roots,
    total_dimension,
    validate_hessenberg,
)
from hesscomb.perms import (
    all_perms,
    apply_to_root,
    front_cycle,
    identity,
    inversion_set,
    length,
    positive_roots,
)


class TestValidate:
    def test_accepts_valid(self):
        assert validate_hessenberg((3, 4, 4, 4)) == (3, 4, 4, 4)
        assert validate_hessenberg(range(1, 6)) == (1, 2, 3, 4, 5)

    def test_distinct_diagnostics(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            validate_hessenberg((2, 1, 3))
        with pytest.raises(ValueError, match="below the diagonal"):
            validate_hessenberg((1, 1, 3))
        with pytest.raises(ValueError, match="exceeds n"):
            validate_hessenberg((4, 4, 4))
        with pytest.raises(ValueError, match="empty"):
            validate_hessenberg(())

    @pytest.mark.parametrize("call", [
        pytest.param(lambda h: hc.hessenberg_roots(h), id="hessenberg_roots"),
        pytest.param(lambda h: hc.hessenberg_length(identity(len(h)), h), id="hessenberg_length"),
        pytest.param(lambda h: hc.total_dimension(h), id="total_dimension"),
        pytest.param(lambda h: hc.delete_vertex(h, 1), id="delete_vertex"),
        pytest.param(lambda h: hc.weyl_subset_of(identity(len(h)), h), id="weyl_subset_of"),
        pytest.param(lambda h: hc.enumerate_weyl_subsets(h), id="enumerate_weyl_subsets"),
        pytest.param(lambda h: hc.list_classes(h), id="list_classes"),
        pytest.param(lambda h: hc.make_weyl_subset((), h), id="make_weyl_subset"),
        pytest.param(lambda h: hc.is_weyl_type((), h), id="is_weyl_type"),
        pytest.param(lambda h: hc.WeylSubset(frozenset(), h), id="WeylSubset"),
        pytest.param(lambda h: hc.reachable_tuples(identity(len(h)), h, 1), id="reachable_tuples"),
        pytest.param(lambda h: hc.fixed_points_by_reachability(identity(len(h)), h),
                     id="fixed_points_by_reachability"),
        pytest.param(lambda h: hc.fixed_points_by_translation(identity(len(h)), h),
                     id="fixed_points_by_translation"),
        pytest.param(lambda h: hc.reachability_family(identity(len(h)), h),
                     id="reachability_family"),
        pytest.param(lambda h: hc.interval_family(identity(len(h)), h), id="interval_family"),
        pytest.param(lambda h: hc.dimension_report(identity(len(h)), h), id="dimension_report"),
    ])
    @pytest.mark.parametrize("h", [(3, 2, 3), (2, 3, 4), (2, 1), (0, 2)])
    def test_every_entry_rejects_a_malformed_h(self, call, h):
        # each public function that takes an h or a subset reports h itself
        with pytest.raises(ValueError) as diagnostic:
            validate_hessenberg(h)
        with pytest.raises(ValueError, match=re.escape(str(diagnostic.value))):
            call(h)


class TestRoots:
    def test_one_root_short_of_full(self):
        assert hessenberg_roots((3, 4, 4, 4)) == positive_roots(4) - {(1, 4)}

    def test_full(self):
        assert hessenberg_roots((4, 4, 4, 4)) == positive_roots(4)

    def test_minimal_is_empty(self):
        assert hessenberg_roots((1, 2, 3, 4)) == frozenset()


class TestLength:
    def test_known_value(self):
        assert hessenberg_length((2, 3, 4, 1), (3, 4, 4, 4)) == 2

    def test_identity_is_zero(self):
        for h in enumerate_hessenberg(4):
            assert hessenberg_length(identity(4), h) == 0

    def test_full_function_recovers_length(self):
        for w in all_perms(4):
            assert hessenberg_length(w, (4, 4, 4, 4)) == length(w)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_direct_scan_agreement(self, n):
        for h in enumerate_hessenberg(n):
            for w in all_perms(n):
                direct = sum(
                    1
                    for i in range(1, n)
                    for j in range(i + 1, h[i - 1] + 1)
                    if w[i - 1] > w[j - 1]
                )
                assert hessenberg_length(w, h) == direct

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            hessenberg_length((1, 2, 3), (3, 4, 4, 4))


class TestDimension:
    def test_known_value(self):
        assert total_dimension((3, 4, 4, 4)) == 5

    def test_extremes(self):
        assert total_dimension((1, 2, 3, 4)) == 0
        assert total_dimension((5, 5, 5, 5, 5)) == math.comb(5, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts_agree(self, n):
        for h in enumerate_hessenberg(n):
            assert (
                len(hessenberg_roots(h))
                == total_dimension(h)
                == len(hessenberg_roots(h))
            )


class TestGraph:
    def test_small_example(self):
        assert hessenberg_roots((2, 4, 4, 4)) == {(1, 2), (2, 3), (2, 4), (3, 4)}

    def test_rank_five_example(self):
        assert hessenberg_roots((3, 4, 5, 5, 5)) == {
            (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5),
        }

    def test_full_gives_complete_graph(self):
        for n in (2, 3, 4, 5):
            assert hessenberg_roots((n,) * n) == positive_roots(n)


class TestDeleteVertex:
    def test_worked_example(self):
        reduced = delete_vertex((3, 4, 4, 4), 3)
        assert reduced == (2, 3, 3)
        assert hessenberg_roots(reduced) == {(1, 2), (2, 3)}

    def test_complete_graph_stays_complete(self):
        for n in (2, 3, 4, 5):
            for k in range(1, n + 1):
                assert delete_vertex((n,) * n, k) == (n - 1,) * (n - 1)

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError):
            delete_vertex((3, 4, 4, 4), 5)
        with pytest.raises(ValueError):
            delete_vertex((1,), 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_graph_deletion(self, n):
        # the reduced graph must equal the vertex-deleted graph, relabeled
        for h in enumerate_hessenberg(n):
            edges = hessenberg_roots(h)
            for k in range(1, n + 1):
                survived = frozenset(
                    tuple(v - 1 if v > k else v for v in e)
                    for e in edges
                    if k not in e
                )
                reduced = delete_vertex(h, k)
                assert hessenberg_roots(reduced) == survived

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_root_identity_in_shifted_labels(self, n):
        # pushing the reduced roots to labels 2..n must recover the
        # front-cycle image of the original roots avoiding the deleted vertex
        for h in enumerate_hessenberg(n):
            roots = hessenberg_roots(h)
            for k in range(1, n + 1):
                cyc = front_cycle(n, k)
                moved = frozenset(
                    apply_to_root(cyc, r) for r in roots if k not in r
                )
                reduced = delete_vertex(h, k)
                shifted = frozenset(
                    (a + 1, b + 1) for a, b in hessenberg_roots(reduced)
                )
                assert moved == shifted


class TestEnumerate:
    def test_catalan_counts(self):
        for n in range(1, 8):
            want = math.comb(2 * n, n) // (n + 1)
            got = list(enumerate_hessenberg(n))
            assert len(got) == want
            assert len(set(got)) == want

    def test_small_counts(self):
        assert len(list(enumerate_hessenberg(3))) == 5
        assert len(list(enumerate_hessenberg(4))) == 14
        assert list(enumerate_hessenberg(1)) == [(1,)]

    def test_all_valid_and_ordered(self):
        got = list(enumerate_hessenberg(5))
        assert got == sorted(got)
        for h in got:
            assert validate_hessenberg(h) == h

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            list(enumerate_hessenberg(0))

    def test_inversion_sets_are_weyl_subsets_of_full_function(self):
        # with h full the selected roots are all of them, so the classes
        # are exactly the fibers of the inversion-set map
        seen = {inversion_set(w) for w in all_perms(4)}
        assert len(seen) == 24
