"""
Named property checks swept over all Hessenberg functions of a given rank.

Every check either passes silently or reports failing (n, h, S, operation)
records; the CLI `verify` command aggregates them into a summary.  Checks
are registered under stable kebab-case names so a single one can be run in
isolation.  Units of work are (check, h) pairs, so sweeps parallelize over
a process pool with order-independent, deterministic aggregation.

Verdict protocol: a check is a generator over one rank n (registered with
per_h=False) or one Hessenberg function h of rank n.  It yields one
(S, ok) verdict per checked instance, where S is the Weyl-type subset the
instance belongs to, or None when the instance covers a whole rank or a
whole h.  The `_check` decorator registers the generator under its name and
turns it into a callable returning (checked, failures): the number of
verdicts, and one record per verdict with ok false.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from typing import Callable, Iterator, Optional

from .fixed_points import (
    fixed_points_by_interval,
    fixed_points_by_reachability,
    fixed_points_by_translation,
    schubert_fixed_points,
)
from .hessenberg import (
    Hessenberg,
    delete_vertex,
    enumerate_hessenberg,
    hessenberg_length,
    hessenberg_roots,
    incomparability_graph,
    total_dimension,
)
from .oracles import (
    acyclic_orientations_by_enumeration,
    bruhat_leq_by_covers,
    class_by_filter,
)
from .orders import bruhat_interval, bruhat_leq, ktuple_leq, sort_action, weak_left_leq
from .perms import (
    all_perms,
    apply_to_root,
    compose,
    front_cycle,
    inversion_set,
    is_positive,
    length,
    longest_element,
    positive_roots,
)
from .reach import is_reachable, largest_source, reachable_tuples, sources
from .weyl import (
    WeylSubset,
    class_of,
    complement,
    enumerate_weyl_subsets,
    induced_subset,
    max_element,
    min_element,
    orientation_of,
    weyl_subset_of,
    weyl_subsets_sorted,
)

MAX_N = 6

Failure = dict
CheckResult = tuple[int, list[Failure]]
Verdicts = Iterator[tuple[Optional[WeylSubset], bool]]

GLOBAL_CHECKS: dict[str, Callable[[int], CheckResult]] = {}
PER_H_CHECKS: dict[str, Callable[[int, Hessenberg], CheckResult]] = {}


def _fail(n: int, operation: str, h: Optional[Hessenberg] = None,
          S: Optional[WeylSubset] = None) -> Failure:
    return {
        "n": n,
        "h": list(h) if h is not None else None,
        "S": [list(r) for r in sorted(S.roots)] if S is not None else None,
        "operation": operation,
    }


def _check(name: str, per_h: bool = True):
    """Register a verdict generator under name, in PER_H_CHECKS when it
    takes (n, h) and in GLOBAL_CHECKS when it takes n alone."""

    def register(verdicts: Callable[..., Verdicts]) -> Callable[..., Verdicts]:
        def run(n: int, *h: Hessenberg) -> CheckResult:
            # h is empty for a rank-global check
            checked = 0
            failures = []
            for S, ok in verdicts(n, *h):
                checked += 1
                if not ok:
                    failures.append(_fail(n, name, *h, S=S))
            return checked, failures

        (PER_H_CHECKS if per_h else GLOBAL_CHECKS)[name] = run
        return verdicts

    return register


# ---------------------------------------------------------------------------
# rank-global checks (no Hessenberg function involved)

@_check("complement-involution", per_h=False)
def _complement_involution(n: int) -> Verdicts:
    w0 = longest_element(n)
    top = length(w0)
    pos = positive_roots(n)
    for w in all_perms(n):
        flip = compose(w0, w)
        yield None, (length(w) + length(flip) == top
                     and inversion_set(flip) == pos - inversion_set(w))


@_check("inversion-root-action", per_h=False)
def _inversion_root_action(n: int) -> Verdicts:
    pos = positive_roots(n)
    for w in all_perms(n):
        inv = inversion_set(w)
        yield None, all((r in inv) == (not is_positive(apply_to_root(w, r))) for r in pos)


@_check("enumeration-count", per_h=False)
def _enumeration_count(n: int) -> Verdicts:
    perms = all_perms(n)
    yield None, len(perms) == math.factorial(n) == len(set(perms))


@_check("bruhat-partial-order", per_h=False)
def _bruhat_partial_order(n: int) -> Verdicts:
    # up[i] has bit j set when perms[i] <= perms[j]; one verdict per pair
    # covers reflexivity, antisymmetry and transitivity at once
    perms = all_perms(n)
    up = [sum(1 << j for j, v in enumerate(perms) if bruhat_leq(w, v)) for w in perms]
    for i, above_i in enumerate(up):
        for j, above_j in enumerate(up):
            if above_i >> j & 1:
                yield None, (i == j or not above_j >> i & 1) and not above_j & ~above_i
            else:
                yield None, i != j


@_check("bruhat-oracle", per_h=False)
def _bruhat_oracle(n: int) -> Verdicts:
    perms = all_perms(n)
    for w in perms:
        for v in perms:
            yield None, bruhat_leq(w, v) == bruhat_leq_by_covers(w, v)


@_check("weak-implies-bruhat", per_h=False)
def _weak_implies_bruhat(n: int) -> Verdicts:
    perms = all_perms(n)
    for u in perms:
        for v in perms:
            yield None, not weak_left_leq(u, v) or bruhat_leq(u, v)


@_check("weak-order-reversal", per_h=False)
def _weak_order_reversal(n: int) -> Verdicts:
    perms = all_perms(n)
    w0 = longest_element(n)
    for u in perms:
        for v in perms:
            yield None, weak_left_leq(u, v) == weak_left_leq(compose(w0, v), compose(w0, u))


# ---------------------------------------------------------------------------
# per-Hessenberg-function checks

@_check("dimension-count")
def _dimension_count(n: int, h: Hessenberg) -> Verdicts:
    yield None, (
        len(hessenberg_roots(h))
        == total_dimension(h)
        == len(incomparability_graph(h).edges)
    )


@_check("hessenberg-length")
def _hessenberg_length(n: int, h: Hessenberg) -> Verdicts:
    for w in all_perms(n):
        direct = sum(
            1
            for i in range(1, n)
            for j in range(i + 1, h[i - 1] + 1)
            if w[i - 1] > w[j - 1]
        )
        yield None, hessenberg_length(w, h) == direct


@_check("vertex-deletion")
def _vertex_deletion(n: int, h: Hessenberg) -> Verdicts:
    if n == 1:
        return
    edges = incomparability_graph(h).edges
    for k in range(1, n + 1):
        reduced = delete_vertex(h, k)
        survived = frozenset(
            tuple(v - 1 if v > k else v for v in e)
            for e in edges
            if k not in e
        )
        graph_ok = incomparability_graph(reduced).edges == survived

        # shifted-label identity: the roots of the reduced function, pushed
        # to labels 2..n, must equal the front-cycle image of the original
        # selected roots restricted to those labels
        cyc = front_cycle(n, k)
        moved = frozenset(
            apply_to_root(cyc, r)
            for r in hessenberg_roots(h)
            if k not in r
        )
        shifted = frozenset((a + 1, b + 1) for a, b in hessenberg_roots(reduced))
        yield None, graph_ok and moved == shifted


@_check("partition")
def _partition(n: int, h: Hessenberg) -> Verdicts:
    # one verdict for the whole h, counted once per class
    classes = [class_of(S) for S in enumerate_weyl_subsets(h)]
    ok = (sum(map(len, classes)) == math.factorial(n)
          and set().union(*classes) == set(all_perms(n)))
    for _ in classes:
        yield None, ok


@_check("interval")
def _interval(n: int, h: Hessenberg) -> Verdicts:
    for S in weyl_subsets_sorted(h):
        yield S, class_of(S) == class_by_filter(S)


@_check("complement-bijection")
def _complement_bijection(n: int, h: Hessenberg) -> Verdicts:
    w0 = longest_element(n)
    for S in weyl_subsets_sorted(h):
        flipped = frozenset(compose(w0, w) for w in class_of(S))
        yield S, flipped == class_of(complement(S))


@_check("minimal-inversions")
def _minimal_inversions(n: int, h: Hessenberg) -> Verdicts:
    for S in weyl_subsets_sorted(h):
        low = inversion_set(min_element(S))
        yield S, all(
            low <= inversion_set(y)
            for y in all_perms(n)
            if S.roots <= inversion_set(y)
        )


@_check("orientation-bijection")
def _orientation_bijection(n: int, h: Hessenberg) -> Verdicts:
    produced = frozenset(orientation_of(S) for S in enumerate_weyl_subsets(h))
    yield None, produced == acyclic_orientations_by_enumeration(incomparability_graph(h))


@_check("source-induction")
def _source_induction(n: int, h: Hessenberg) -> Verdicts:
    if n == 1:
        return
    for S in weyl_subsets_sorted(h):
        cls = class_of(S)
        for k in sorted(sources(orientation_of(S))):
            reduced_cls = class_of(induced_subset(S, k))
            cyc = front_cycle(n, k)
            yield S, all(
                (compose((1,) + tuple(v + 1 for v in y), cyc) in cls) == (y in reduced_cls)
                for y in all_perms(n - 1)
            )


@_check("reachability-order")
def _reachability_order(n: int, h: Hessenberg) -> Verdicts:
    for S in weyl_subsets_sorted(h):
        o = orientation_of(S)
        m = max_element(S)
        for j in range(1, n + 1):
            for i in range(j, n + 1):
                yield S, is_reachable(j, i, o) == (m[j - 1] <= m[i - 1])


@_check("largest-source-reach")
def _largest_source_reach(n: int, h: Hessenberg) -> Verdicts:
    for S in weyl_subsets_sorted(h):
        o = orientation_of(S)
        k = largest_source(o)
        yield S, all(is_reachable(k, i, o) for i in range(k + 1, n + 1))


@_check("reachable-monotone")
def _reachable_monotone(n: int, h: Hessenberg) -> Verdicts:
    for S in weyl_subsets_sorted(h):
        o = orientation_of(S)
        cls = class_of(S)
        yield S, all(
            w[j - 1] <= w[i - 1]
            for j in range(1, n + 1)
            for i in range(j, n + 1)
            if is_reachable(j, i, o)
            for w in cls
        )


@_check("source-realization")
def _source_realization(n: int, h: Hessenberg) -> Verdicts:
    for S in weyl_subsets_sorted(h):
        yield S, {w.index(1) + 1 for w in class_of(S)} == sources(orientation_of(S))


@_check("j-set-formula")
def _j_set_formula(n: int, h: Hessenberg) -> Verdicts:
    for S in weyl_subsets_sorted(h):
        m = max_element(S)
        cls = class_of(S)
        for k in range(1, n):
            base = sort_action(m, tuple(range(1, k + 1)))
            formula = tuple(
                t
                for t in combinations(range(1, n + 1), k)
                if ktuple_leq(base, sort_action(m, t))
            )
            for w in cls:
                yield S, reachable_tuples(w, h, k) == formula


@_check("main-theorem")
def _main_theorem(n: int, h: Hessenberg) -> Verdicts:
    w0 = longest_element(n)
    for S in weyl_subsets_sorted(h):
        m = max_element(S)
        yield S, fixed_points_by_reachability(m, h) == bruhat_interval(m, w0)


@_check("cell-translation")
def _cell_translation(n: int, h: Hessenberg) -> Verdicts:
    for v in all_perms(n):
        yield weyl_subset_of(v, h), (
            fixed_points_by_translation(v, h) == fixed_points_by_reachability(v, h)
        )


@_check("fixed-point-containment")
def _fixed_point_containment(n: int, h: Hessenberg) -> Verdicts:
    w0 = longest_element(n)
    for v in all_perms(n):
        yield weyl_subset_of(v, h), (
            fixed_points_by_reachability(v, h) <= bruhat_interval(v, w0)
        )


@_check("strict-containment")
def _strict_containment(n: int, h: Hessenberg) -> Verdicts:
    w0 = longest_element(n)
    for v in all_perms(n):
        S = weyl_subset_of(v, h)
        if v != max_element(S):
            yield S, fixed_points_by_reachability(v, h) < bruhat_interval(v, w0)


@_check("schubert-duality")
def _schubert_duality(n: int, h: Hessenberg) -> Verdicts:
    w0 = longest_element(n)
    for S in weyl_subsets_sorted(h):
        translated = frozenset(
            compose(w0, u) for u in fixed_points_by_interval(complement(S))
        )
        yield S, schubert_fixed_points(S) == translated


def lemma_names() -> list[str]:
    return sorted({**GLOBAL_CHECKS, **PER_H_CHECKS})


def _run_unit(unit: tuple) -> tuple[tuple, int, list[Failure]]:
    name, n, h = unit
    if h is None:
        checked, failures = GLOBAL_CHECKS[name](n)
    else:
        checked, failures = PER_H_CHECKS[name](n, h)
    return unit, checked, failures


def run_suite(n: int, lemma: Optional[str] = None, jobs: int = 1):
    """Run the property checks at rank n; returns (summary, discrepancies).

    The summary maps each check to instance and failure counts; the
    discrepancy list holds one (n, h, S, operation) record per failure.
    Aggregation follows the fixed unit order, so output is identical for
    any job count.  At most min(jobs, CPU count, unit count) worker
    processes run.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"rank must be between 1 and {MAX_N}, got {n}")
    if lemma is not None and lemma not in GLOBAL_CHECKS and lemma not in PER_H_CHECKS:
        raise ValueError(f"unknown check {lemma!r}; known: {', '.join(lemma_names())}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    names = [lemma] if lemma is not None else lemma_names()
    hs = tuple(enumerate_hessenberg(n))
    units: list[tuple] = []
    for name in names:
        if name in GLOBAL_CHECKS:
            units.append((name, n, None))
        else:
            units.extend((name, n, h) for h in hs)
    workers = min(jobs, os.cpu_count() or 1, len(units))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_unit, units, chunksize=4))
    else:
        results = [_run_unit(u) for u in units]

    lemmas: dict[str, dict[str, int]] = {}
    discrepancies: list[Failure] = []
    for (name, _, _), checked, failures in results:
        entry = lemmas.setdefault(name, {"checked": 0, "failures": 0})
        entry["checked"] += checked
        entry["failures"] += len(failures)
        discrepancies.extend(failures)

    total = sum(entry["failures"] for entry in lemmas.values())
    summary = {
        "n": n,
        "hessenberg_count": len(hs),
        "lemmas": lemmas,
        "failures": total,
        "ok": total == 0,
    }
    return summary, discrepancies
