"""
Named property checks swept over all Hessenberg functions of a given rank.

Every check either passes silently or reports failing (n, h, S, operation)
records; the CLI `verify` command aggregates them into a summary.  Checks
are registered under stable kebab-case names so a single one can be run in
isolation.  The rank-global order checks read each order as rows, ints
whose bit i stands for all_perms(n)[i], built once per check: the Bruhat
up-row of w is perms.prefix_bits of orders.bruhat_family(w, w0), the
family the interval route lists, and the weak up- and down-rows of u are
ANDs of the root columns of perms.root_columns over N(u) and over the
complements of the other columns.  They decide no pair alone and list no
Bruhat interval; orders.bruhat_leq is tested on its own.  The per-h checks
take Bruhat order from orders.bruhat_interval; minimal-inversions and the
class filter of oracles read the same columns, and j-set-formula reads
the J-sets of a class maximum m off orders.bruhat_family(m, w0), pulled
back through m.  A unit of work is one rank-global
check, or one Hessenberg function h with every requested per-h check run
on it in name order, so the checks on one h share the caches of
the fixed point sets and reachable sets of its classes.  No key of those
caches recurs on another h, so they end with their unit: UNIT_CACHES lists
them, and each per-h unit clears them when it ends.  A CLI command is a
unit of work too, and cli.main clears them when it ends.  Sweeps
parallelize over a process pool, and the results are put back in
(check, h) order, so the aggregation is deterministic and independent of
the job count.

Verdict protocol: a check is a generator over one rank n (registered with
per_h=False) or one Hessenberg function h of rank n.  It yields one
(S, ok) verdict per checked instance, where S is the Weyl-type subset the
instance belongs to, or None when the instance covers a whole rank or a
whole h; or it yields a batch (S, count, failed), count verdicts on S of
which failed are false, as a row check does for each row.  The `_check`
decorator registers the generator under its name and turns it into a
callable returning (checked, failures): the number of verdicts, and one
record per false verdict, in the order they were yielded.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Iterator, Optional, Union

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
    total_dimension,
)
from .oracles import (
    acyclic_orientations_by_enumeration,
    bruhat_rows_by_covers,
    class_by_filter,
)
from .orders import bruhat_family, bruhat_interval
from .perms import (
    all_perms,
    apply_to_root,
    compose,
    front_cycle,
    image_family,
    inverse,
    inversion_bits,
    inversion_set,
    is_positive,
    length,
    longest_element,
    positive_roots,
    prefix_bits,
    row_members,
)
from .reach import is_reachable, largest_source, reachability_table, reachable_masks, sources
from .weyl import (
    WeylSubset,
    class_of,
    complement,
    enumerate_weyl_subsets,
    induced_subset,
    max_element,
    min_element,
    weyl_subset_of,
)

MAX_N = 6

# The caches keyed on h: on h itself, on a Weyl-type subset of its roots
# or on a pair (w, h).  Each per-h unit and each CLI command clears them
# when it ends.  Bound at import, so that they stay clearable when the
# module's names are rebound.
UNIT_CACHES = (
    weyl_subset_of, enumerate_weyl_subsets, max_element, class_of,
    reachability_table, reachable_masks, fixed_points_by_reachability,
)

Failure = dict
CheckResult = tuple[int, list[Failure]]
Verdicts = Iterator[Union[tuple[Optional[WeylSubset], bool], tuple[Optional[WeylSubset], int, int]]]

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
            for verdict in verdicts(n, *h):
                if len(verdict) == 2:  # (S, ok): one verdict
                    S, ok = verdict
                    count, failed = 1, not ok
                else:  # (S, count, failed): a batch of them
                    S, count, failed = verdict
                checked += count
                if failed:
                    failures.extend(_fail(n, name, *h, S=S) for _ in range(failed))
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


def _bruhat_up_rows(n: int) -> list[int]:
    """Row i has bit j set when all_perms(n)[i] <= all_perms(n)[j] in Bruhat
    order: the index reading of bruhat_family(all_perms(n)[i], w0)."""
    w0 = longest_element(n)
    return [prefix_bits(bruhat_family(w, w0)) for w in all_perms(n)]


def _weak_up_rows(n: int) -> list[int]:
    """Row i has bit j set when N(all_perms(n)[i]) lies in N(all_perms(n)[j]):
    the AND of the columns of N(all_perms(n)[i])."""
    return [inversion_bits(n, inversion_set(u)) for u in all_perms(n)]


def _weak_down_rows(n: int) -> list[int]:
    """Row i has bit j set when N(all_perms(n)[j]) lies in N(all_perms(n)[i]):
    the AND of the complements of the columns outside N(all_perms(n)[i])."""
    pos = positive_roots(n)
    return [inversion_bits(n, (), pos - inversion_set(w)) for w in all_perms(n)]


@_check("bruhat-partial-order", per_h=False)
def _bruhat_partial_order(n: int) -> Verdicts:
    # one verdict per pair covers reflexivity, antisymmetry and transitivity
    # at once: a pair (i, j) outside row i fails only when i == j, and a pair
    # j != i inside it when row j holds i or a bit outside row i
    up = _bruhat_up_rows(n)
    for i, above_i in enumerate(up):
        escape = ~above_i | 1 << i
        failed = sum(1 for j in row_members(above_i & ~(1 << i)) if up[j] & escape)
        yield None, len(up), failed + 1 - (above_i >> i & 1)


@_check("bruhat-oracle", per_h=False)
def _bruhat_oracle(n: int) -> Verdicts:
    count = math.factorial(n)
    for above, witness in zip(_bruhat_up_rows(n), bruhat_rows_by_covers(n), strict=True):
        yield None, count, (above ^ witness).bit_count()


@_check("weak-implies-bruhat", per_h=False)
def _weak_implies_bruhat(n: int) -> Verdicts:
    count = math.factorial(n)
    for weak, above in zip(_weak_up_rows(n), _bruhat_up_rows(n), strict=True):
        yield None, count, (weak & ~above).bit_count()


@_check("weak-order-reversal", per_h=False)
def _weak_order_reversal(n: int) -> Verdicts:
    # w0 reverses values, so all_perms(n)[x] times w0 on the left is
    # all_perms(n)[n! - 1 - x]: v lies above u exactly when w0 v lies below
    # w0 u, that is when the bit-reversed up-row of u is the down-row of w0 u
    count = math.factorial(n)
    downs = _weak_down_rows(n)
    for x, up in enumerate(_weak_up_rows(n)):
        reversed_up = int(format(up, f"0{count}b")[::-1], 2)
        yield None, count, (reversed_up ^ downs[count - 1 - x]).bit_count()


# ---------------------------------------------------------------------------
# per-Hessenberg-function checks

@_check("dimension-count")
def _dimension_count(n: int, h: Hessenberg) -> Verdicts:
    yield None, len(hessenberg_roots(h)) == total_dimension(h)


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
    edges = hessenberg_roots(h)
    for k in range(1, n + 1):
        reduced = delete_vertex(h, k)
        survived = frozenset(
            tuple(v - 1 if v > k else v for v in e)
            for e in edges
            if k not in e
        )
        graph_ok = hessenberg_roots(reduced) == survived

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
    for S in enumerate_weyl_subsets(h):
        yield S, class_of(S) == class_by_filter(S)


@_check("complement-bijection")
def _complement_bijection(n: int, h: Hessenberg) -> Verdicts:
    w0 = longest_element(n)
    for S in enumerate_weyl_subsets(h):
        flipped = frozenset(compose(w0, w) for w in class_of(S))
        yield S, flipped == class_of(complement(S))


@_check("minimal-inversions")
def _minimal_inversions(n: int, h: Hessenberg) -> Verdicts:
    # the y with S inside N(y) must all have N(min) inside N(y)
    for S in enumerate_weyl_subsets(h):
        above_min = inversion_bits(n, inversion_set(min_element(S)))
        yield S, not inversion_bits(n, S.roots) & ~above_min


@_check("orientation-bijection")
def _orientation_bijection(n: int, h: Hessenberg) -> Verdicts:
    yield None, frozenset(enumerate_weyl_subsets(h)) == acyclic_orientations_by_enumeration(h)


@_check("source-induction")
def _source_induction(n: int, h: Hessenberg) -> Verdicts:
    if n == 1:
        return
    for S in enumerate_weyl_subsets(h):
        cls = class_of(S)
        for k in sorted(sources(S)):
            # y -> (1, y + 1) c_k is a bijection from S_{n-1} onto {w : w(k) = 1}
            cyc = front_cycle(n, k)
            lifted = {compose((1,) + tuple(v + 1 for v in y), cyc)
                      for y in class_of(induced_subset(S, k))}
            yield S, lifted == {w for w in cls if w[k - 1] == 1}


@_check("reachability-order")
def _reachability_order(n: int, h: Hessenberg) -> Verdicts:
    for S in enumerate_weyl_subsets(h):
        m = max_element(S)
        for j in range(1, n + 1):
            for i in range(j, n + 1):
                yield S, is_reachable(j, i, S) == (m[j - 1] <= m[i - 1])


@_check("largest-source-reach")
def _largest_source_reach(n: int, h: Hessenberg) -> Verdicts:
    for S in enumerate_weyl_subsets(h):
        k = largest_source(S)
        yield S, all(is_reachable(k, i, S) for i in range(k + 1, n + 1))


@_check("reachable-monotone")
def _reachable_monotone(n: int, h: Hessenberg) -> Verdicts:
    for S in enumerate_weyl_subsets(h):
        cls = class_of(S)
        yield S, all(
            w[j - 1] <= w[i - 1]
            for j in range(1, n + 1)
            for i in range(j, n + 1)
            if is_reachable(j, i, S)
            for w in cls
        )


@_check("source-realization")
def _source_realization(n: int, h: Hessenberg) -> Verdicts:
    for S in enumerate_weyl_subsets(h):
        yield S, {w.index(1) + 1 for w in class_of(S)} == sources(S)


@_check("j-set-formula")
def _j_set_formula(n: int, h: Hessenberg) -> Verdicts:
    """The reachable k-sets of each w in the class of maximum m, from
    reach.reachable_masks, against J_k(m): the k-sets T with sorted m(T) at
    or above sorted m({1, ..., k}) in Gale order.  J_k(m) is read off the
    prefix family of [m, w0], whose level k - 1 is orders._gale_table of the
    masks of m[:k] and w0[:k]: the k-sets at or above m({1, ..., k}) in Gale
    order, since every k-set lies at or below w0({1, ..., k}).  Pulled back
    through m by perms.image_family, those sets are J_k(m).  The
    reachability route at v = u m is the image of the reachable sets under
    v, and the interval route the image of the family of [m, w0] under u,
    so equal families at m make the two routes agree at every v of the
    class."""
    w0 = longest_element(n)
    for S in enumerate_weyl_subsets(h):
        m = max_element(S)
        formulas = image_family(bruhat_family(m, w0), inverse(m))
        reached = [reachable_masks(weyl_subset_of(w, h)) for w in class_of(S)]
        for k in range(1, n):
            for masks in reached:
                yield S, masks[k] == formulas[k - 1]


@_check("main-theorem")
def _main_theorem(n: int, h: Hessenberg) -> Verdicts:
    w0 = longest_element(n)
    for S in enumerate_weyl_subsets(h):
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
    for S in enumerate_weyl_subsets(h):
        translated = frozenset(
            compose(w0, u) for u in fixed_points_by_interval(complement(S))
        )
        yield S, schubert_fixed_points(S) == translated


def lemma_names() -> list[str]:
    return sorted({**GLOBAL_CHECKS, **PER_H_CHECKS})


def _run_unit(unit: tuple) -> list[tuple]:
    """Run the checks of one unit, (names, n, h) with h None for a
    rank-global check; returns one (name, h, checked, failures) per check.
    Each check is looked up in its registry at call time.  A per-h unit
    clears UNIT_CACHES when it ends, whether or not a check raised."""
    names, n, h = unit
    if h is None:
        return [(name, h, *GLOBAL_CHECKS[name](n)) for name in names]
    try:
        return [(name, h, *PER_H_CHECKS[name](n, h)) for name in names]
    finally:
        for cache in UNIT_CACHES:
            cache.cache_clear()


def run_suite(n: int, lemma: Optional[str] = None, jobs: int = 1):
    """Run the property checks at rank n; returns (summary, discrepancies).

    The summary maps each check to instance and failure counts; the
    discrepancy list holds one (n, h, S, operation) record per failure.
    Units are the rank-global checks one by one and the Hessenberg
    functions of rank n; aggregation walks the checks in name order and
    each per-h check over h in enumeration order, so output is identical
    for any job count.  At most min(jobs, CPU count, unit count) worker
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
    per_h = tuple(name for name in names if name in PER_H_CHECKS)
    units = [((name,), n, None) for name in names if name in GLOBAL_CHECKS]
    if per_h:
        units += [(per_h, n, h) for h in hs]
    workers = min(jobs, os.cpu_count() or 1, len(units))
    if workers > 1:
        # imported only here: it loads multiprocessing, which would slow every CLI start
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            ran = list(pool.map(_run_unit, units))
    else:
        ran = [_run_unit(u) for u in units]
    results = {(name, h): rest for unit in ran for name, h, *rest in unit}

    lemmas: dict[str, dict[str, int]] = {}
    discrepancies: list[Failure] = []
    for name in names:
        entry = lemmas[name] = {"checked": 0, "failures": 0}
        for h in hs if name in PER_H_CHECKS else (None,):
            checked, failures = results[name, h]
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
