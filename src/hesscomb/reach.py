"""
Increasing-path reachability on an oriented incomparability graph, whose
edges are the roots selected by h.  A Weyl-type subset S is its own
orientation: the edges in S point downward, the rest upward.

Vertex i is reachable from j <= i when a strictly increasing vertex
sequence j = v0 < v1 < ... < vm = i follows oriented edges (m = 0 allowed,
so every vertex reaches itself).  Only edges oriented from smaller to
larger vertex can appear on such a path, so the relation is the transitive
closure of the upward arcs, built once per subset on S.before and in its
layout: bit u of entry v is set when u reaches v.

A k-set is reachable from {1, ..., k} when its members can be paired with
1, ..., k, each reachable from its partner.  These sets are found by a walk
over bitmasks that swaps one member for a vertex it reaches.  They depend
on the subset and k alone, so the walk runs once per (S, k) and every
permutation of the class of S shares its result.
"""

from __future__ import annotations

from functools import lru_cache

from .hessenberg import Hessenberg
from .orders import KTuple
from .perms import Perm
from .weyl import WeylSubset, _ready, is_acyclic, weyl_subset_of


@lru_cache(maxsize=None)
def reachability_table(S: WeylSubset) -> tuple[int, ...]:
    """Per-vertex bitmasks of the vertices that reach it (bit u of entry v
    for u reaching v; entry 0 is unused): the closure of the upward arcs."""
    before = S.before
    table = [0] * (S.n + 1)
    for v in range(1, S.n + 1):
        table[v] = 1 << v
        for u in range(1, v):
            if before[v] >> u & 1:
                table[v] |= table[u]
    return tuple(table)


def is_reachable(j: int, i: int, S: WeylSubset) -> bool:
    """True when an increasing oriented path runs from j to i.

    Every vertex reaches itself; for j > i the relation is empty, so the
    answer is False.
    """
    n = S.n
    if not (1 <= j <= n and 1 <= i <= n):
        raise ValueError(f"vertex out of range: {(j, i)}")
    return bool(reachability_table(S)[i] >> j & 1)


def sources(S: WeylSubset) -> set[int]:
    """Vertices whose incident edges all point away (isolated vertices
    included).  Rejects cyclic orientations, which need not have one."""
    if not is_acyclic(S):
        raise ValueError("orientation has a directed cycle")
    ready = _ready(S.before)
    return {v for v in range(1, S.n + 1) if ready >> v & 1}


def largest_source(S: WeylSubset) -> int:
    """The maximum vertex label among the sources."""
    return max(sources(S))


@lru_cache(maxsize=None)
def reachable_sets(S: WeylSubset, k: int) -> tuple[KTuple, ...]:
    """The increasing k-tuples whose underlying set is reachable from
    {1, ..., k} in the orientation S, in lexicographic order.

    A k-set T is reachable from B when some bijection pairs every b in B
    with an a in T reachable from b.  The sets are found by a walk that
    starts from {1, ..., k} and swaps one member b for a non-member a
    reachable from b.  Every set it visits is reachable, since the member
    of B paired with b also reaches a.  It visits them all: reachability
    is transitive and only climbs, so a pairing has no cycles besides the
    vertices paired with themselves and splits into chains
    b1 -> b2 -> ... -> br -> a, where b1 is not in T, b2 ... br are in both
    sets and a is not in B.  Swapping br for a, then b(r-1) for br, and so
    on back to b1 for b2, moves each chain into place by steps of the walk.
    """
    n = S.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"k out of range: {k}")
    table = reachability_table(S)
    swaps = [
        (1 << b, 1 << a) for b in range(1, n) for a in range(b + 1, n + 1) if table[a] >> b & 1
    ]
    start = (1 << k + 1) - 2
    seen = {start}
    todo = [start]
    while todo:
        mask = todo.pop()
        for out, into in swaps:
            step = mask ^ out ^ into
            if mask & out and not mask & into and step not in seen:
                seen.add(step)
                todo.append(step)
    return tuple(sorted(
        tuple(v for v in range(1, n + 1) if mask >> v & 1) for mask in seen
    ))


def reachable_tuples(w: Perm, h: Hessenberg, k: int) -> tuple[KTuple, ...]:
    """reachable_sets for the Weyl-type subset of w under h; the same
    tuples in the same order, and the same ValueError for a bad k."""
    return reachable_sets(weyl_subset_of(w, h), k)
