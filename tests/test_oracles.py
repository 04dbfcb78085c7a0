"""Self-checks of the brute-force oracles and their caps."""

import math

import pytest

from hesscomb.hessenberg import enumerate_hessenberg, hessenberg_roots
from hesscomb.oracles import (
    acyclic_orientations_by_enumeration,
    bruhat_leq_by_covers,
    class_by_filter,
    set_reachable_by_enumeration,
    weak_interval,
)
from hesscomb.perms import all_perms, identity, inversion_set, length, longest_element
from hesscomb.weyl import WeylSubset, enumerate_weyl_subsets


class TestCoverOracle:
    def test_identity_below_everything(self):
        e = identity(4)
        assert all(bruhat_leq_by_covers(e, w) for w in all_perms(4))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_longest_element_covers_one_length_down(self, n):
        # the elements covered by w0 are exactly those of length l(w0) - 1
        w0 = longest_element(n)
        below = set()
        for i in range(n - 1):
            for j in range(i + 1, n):
                q = list(w0)
                q[i], q[j] = q[j], q[i]
                if length(tuple(q)) == length(w0) - 1:
                    below.add(tuple(q))
        assert below == {
            p for p in all_perms(n) if length(p) == length(w0) - 1
        }

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            bruhat_leq_by_covers(identity(7), identity(7))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq_by_covers((1, 2), (1, 2, 3))


class TestClassFilter:
    def test_singletons_at_full_function(self):
        h = (4, 4, 4, 4)
        for S in enumerate_weyl_subsets(h):
            assert len(class_by_filter(S)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_union_is_whole_group(self, n):
        for h in enumerate_hessenberg(n):
            union = set()
            total = 0
            for S in enumerate_weyl_subsets(h):
                cls = class_by_filter(S)
                total += len(cls)
                union |= cls
            assert total == math.factorial(n)
            assert union == set(all_perms(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_columns_match_the_inversion_set_filter(self, n):
        # the filter as it once ran, each permutation's N(w) & R read off
        # inversion_set, grouped once per h
        for h in enumerate_hessenberg(n):
            selected = hessenberg_roots(h)
            by_roots = {}
            for w in all_perms(n):
                by_roots.setdefault(inversion_set(w) & selected, set()).add(w)
            classes = enumerate_weyl_subsets(h)
            assert len(classes) == len(by_roots)
            for S in classes:
                assert class_by_filter(S) == by_roots[S.roots]

    def test_cap(self):
        # refused before any of the 8! permutations is made
        with pytest.raises(ValueError, match="definition filter capped at n = 7, got 8"):
            class_by_filter(WeylSubset(frozenset(), (8,) * 8))


def test_weak_interval_matches_the_inversion_set_filter():
    perms = all_perms(4)
    for lo in perms:
        for hi in perms:
            assert weak_interval(lo, hi) == {
                v for v in perms if inversion_set(lo) <= inversion_set(v) <= inversion_set(hi)}


class TestPairingOracle:
    def test_equal_sets(self):
        S = WeylSubset(frozenset(), (3, 4, 4, 4))
        assert set_reachable_by_enumeration({1, 3}, {1, 3}, S)

    def test_empty_sets(self):
        S = WeylSubset(frozenset(), (3, 4, 4, 4))
        assert set_reachable_by_enumeration(set(), set(), S)

    def test_cardinality_mismatch(self):
        S = WeylSubset(frozenset(), (3, 4, 4, 4))
        with pytest.raises(ValueError, match="cardinality mismatch: 2 vs 1"):
            set_reachable_by_enumeration({1, 2}, {3}, S)

    def test_cap(self):
        h = tuple(range(1, 8))  # edgeless at rank 7
        S = WeylSubset(frozenset(), h)
        with pytest.raises(ValueError, match="capped"):
            set_reachable_by_enumeration(set(range(1, 8)), set(range(1, 8)), S)


class TestOrientationOracle:
    def test_complete_graph_counts(self):
        assert len(acyclic_orientations_by_enumeration((4, 4, 4, 4))) == 24

    def test_path_graph_counts(self):
        # every orientation of a tree is acyclic
        assert len(acyclic_orientations_by_enumeration((2, 3, 4, 4))) == 8

    def test_worked_example_counts(self):
        got = acyclic_orientations_by_enumeration((3, 4, 4, 4))
        assert len(got) == 18
        assert len(got) == len(enumerate_weyl_subsets((3, 4, 4, 4)))

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            acyclic_orientations_by_enumeration((7,) * 7)
