"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every sweep is exhaustive at the stated ranks, the main agreement
through rank 6; criterion 8 adds a seeded random sample at rank 5.
"""

import itertools
import math
import random
import time

from hesscomb.fixed_points import (
    dimension_report,
    fixed_points_by_reachability,
    fixed_points_by_translation,
    reducibility_witness,
)
from hesscomb.hessenberg import (
    enumerate_hessenberg,
    hessenberg_length,
    hessenberg_roots,
    total_dimension,
)
from hesscomb.oracles import (
    acyclic_orientations_by_enumeration,
    bruhat_leq_by_covers,
    class_by_filter,
    weak_interval,
)
from hesscomb.orders import (
    bruhat_interval,
    bruhat_leq,
    ktuple_leq,
    sort_action,
)
from hesscomb.perms import all_perms, compose, longest_element
from hesscomb.reach import is_reachable, reachable_tuples
from hesscomb.weyl import (
    WeylSubset,
    complement,
    enumerate_weyl_subsets,
    max_element,
    min_element,
)

H_KEY = (3, 4, 4, 4)
S_KEY = WeylSubset(frozenset({(2, 3), (1, 3)}), H_KEY)


def subsets_sorted(h):
    return sorted(enumerate_weyl_subsets(h), key=lambda S: sorted(S.roots))


def timed_best(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_worked_class_maximum():
    assert max_element(S_KEY) == (2, 3, 1, 4)
    best = timed_best(lambda: (max_element.cache_clear(), max_element(S_KEY)))
    assert best < 1e-3
    print(f"\nACCEPTANCE 1 PASS: class maximum (2,3,1,4) in {best * 1e6:.0f} us")


def test_criterion_2_worked_graphs_and_orientations():
    assert hessenberg_roots((2, 4, 4, 4)) == {
        (1, 2), (2, 3), (2, 4), (3, 4),
    }
    assert hessenberg_roots((3, 4, 5, 5, 5)) == {
        (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5),
    }
    assert S_KEY.arcs() == {
        (1, 2), (3, 1), (3, 2), (2, 4), (3, 4),
    }
    right = WeylSubset(frozenset({(1, 2)}), (2, 3, 4, 4))
    assert right.arcs() == {(2, 1), (2, 3), (3, 4)}

    hessenberg_roots.cache_clear()
    best = timed_best(
        lambda: (
            hessenberg_roots.cache_clear(),
            hessenberg_roots((2, 4, 4, 4)),
            hessenberg_roots((3, 4, 5, 5, 5)),
            S_KEY.arcs(),
            right.arcs(),
        )
    )
    assert best < 1e-3
    print(f"ACCEPTANCE 2 PASS: graphs and orientations arc-for-arc in {best * 1e6:.0f} us")


def test_criterion_3_key_example_integers():
    assert total_dimension(H_KEY) == 5
    assert dimension_report(max_element(S_KEY), H_KEY)["opp_cell_dim"] == 3
    assert hessenberg_length((2, 3, 4, 1), H_KEY) == 2
    assert reducibility_witness(S_KEY) == (2, 3, 4, 1)
    print("ACCEPTANCE 3 PASS: dimensions 5/3, restricted length 2, witness (2,3,4,1)")


def test_criterion_4_main_theorem_sweep():
    start = time.perf_counter()
    counted = 0
    for n in range(1, 6):
        w0 = longest_element(n)
        hs = list(enumerate_hessenberg(n))
        if n == 5:
            assert len(hs) == 42
        for h in hs:
            for S in subsets_sorted(h):
                m = max_element(S)
                assert fixed_points_by_reachability(m, h) == bruhat_interval(m, w0)
                counted += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120

    w0 = longest_element(6)
    start6 = time.perf_counter()
    counted6 = 0
    for h in enumerate_hessenberg(6):
        for S in subsets_sorted(h):
            m = max_element(S)
            assert fixed_points_by_reachability(m, h) == bruhat_interval(m, w0)
            counted6 += 1
    elapsed6 = time.perf_counter() - start6
    assert counted6 == 10395
    assert elapsed6 < 600
    print(
        f"ACCEPTANCE 4 PASS: {counted} classes exhaustive to rank 5 in "
        f"{elapsed:.1f}s, all {counted6} rank-6 classes in {elapsed6:.1f}s"
    )


def test_criterion_5_translation_sweep_rank_four():
    start = time.perf_counter()
    cases = 0
    for h in enumerate_hessenberg(4):
        for v in all_perms(4):
            assert fixed_points_by_translation(v, h) == \
                fixed_points_by_reachability(v, h)
            cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 24 * 14
    assert elapsed < 60
    print(f"ACCEPTANCE 5 PASS: {cases} translated-interval cases in {elapsed:.1f}s")


def test_criterion_6_interval_structure():
    for n in range(1, 6):
        w0 = longest_element(n)
        for h in enumerate_hessenberg(n):
            total = 0
            for S in subsets_sorted(h):
                cls = class_by_filter(S)
                assert cls == weak_interval(min_element(S), max_element(S))
                flipped = frozenset(compose(w0, w) for w in cls)
                assert flipped == class_by_filter(complement(S))
                total += len(cls)
            assert total == math.factorial(n)
    print("ACCEPTANCE 6 PASS: classes are weak intervals, partition, involution")


def test_criterion_7_orientation_counts():
    for n in range(1, 6):
        for h in enumerate_hessenberg(n):
            assert len(enumerate_weyl_subsets(h)) == len(
                acyclic_orientations_by_enumeration(h)
            )
    assert len(enumerate_weyl_subsets((3, 4, 4, 4))) == 18
    assert len(enumerate_weyl_subsets((2, 3, 4, 4))) == 8
    print("ACCEPTANCE 7 PASS: subset and acyclic-orientation counts agree, 18 and 8")


def _formula_tuples(m, n, k):
    base = sort_action(m, tuple(range(1, k + 1)))
    return tuple(
        t
        for t in itertools.combinations(range(1, n + 1), k)
        if ktuple_leq(base, sort_action(m, t))
    )


def test_criterion_8_reachable_tuples_dual_route():
    from hesscomb.weyl import weyl_subset_of

    checked = 0
    for n in range(2, 5):
        for h in enumerate_hessenberg(n):
            for w in all_perms(n):
                m = max_element(weyl_subset_of(w, h))
                for k in range(1, n):
                    assert reachable_tuples(w, h, k) == _formula_tuples(m, n, k)
                    checked += 1

    rng = random.Random(1000)
    hs5 = list(enumerate_hessenberg(5))
    perms5 = all_perms(5)
    sampled = 0
    for _ in range(1000):
        h = rng.choice(hs5)
        w = rng.choice(perms5)
        k = rng.randint(1, 4)
        m = max_element(weyl_subset_of(w, h))
        assert reachable_tuples(w, h, k) == _formula_tuples(m, 5, k)
        sampled += 1
    assert sampled >= 1000
    print(
        f"ACCEPTANCE 8 PASS: {checked} exhaustive and {sampled} sampled "
        "walk-vs-formula tuple sets agree"
    )


def test_criterion_9_reachability_characterization():
    for n in range(1, 6):
        for h in enumerate_hessenberg(n):
            for S in subsets_sorted(h):
                m = max_element(S)
                for j in range(1, n + 1):
                    for i in range(j, n + 1):
                        assert is_reachable(j, i, S) == (m[j - 1] <= m[i - 1])
    print("ACCEPTANCE 9 PASS: reachability matches value comparison on class maxima")


def test_criterion_10_permutohedral_witness_absence():
    for n in range(2, 6):
        h = tuple(range(2, n + 1)) + (n,)
        for S in subsets_sorted(h):
            assert reducibility_witness(S) is None
    print("ACCEPTANCE 10 PASS: no reducibility witnesses for permutohedral functions")


def test_criterion_11_bruhat_oracle_agreement():
    start = time.perf_counter()
    for n in range(1, 6):
        for w in all_perms(n):
            for v in all_perms(n):
                assert bruhat_leq(w, v) == bruhat_leq_by_covers(w, v)
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    print(f"ACCEPTANCE 11 PASS: tableau and cover-closure orders agree in {elapsed:.1f}s")
