"""
Increasing-path reachability on an oriented incomparability graph, whose
edges are the roots selected by h.  A Weyl-type subset S is its own
orientation: the edges in S point downward, the rest upward.

Vertex i is reachable from j <= i when a strictly increasing vertex
sequence j = v0 < v1 < ... < vm = i follows oriented edges (m = 0 allowed,
so every vertex reaches itself).  Only edges oriented from smaller to
larger vertex can appear on such a path, so the relation is the transitive
closure of the upward arcs, built once per subset on S.before and in its
layout: bit u of entry v is set when u reaches v.  Reachability is defined
for any orientation, cyclic ones included, so nothing here checks S for
Weyl type; only sources, which needs a source, rejects a cycle.

A k-set T is reachable from {1, ..., k} when its members can be paired
with 1, ..., k, each reachable from its partner.  By the pairing induction,
T is reachable exactly when k reaches some t in T and T \\ {t} is reachable
from {1, ..., k - 1}: drop k and its partner t from the pairing, or pair k
with t.  So one pass over k = 1, ..., n finds every reachable set as a
bitmask (bit v for vertex v), each level grown from the one before.  The
sets depend on the subset alone, so the pass runs once per subset and
every permutation of the class of S shares its result.
"""

from __future__ import annotations

from functools import lru_cache

from .hessenberg import Hessenberg
from .orders import KTuple
from .perms import Perm, mask_members
from .weyl import WeylSubset, is_acyclic, weyl_subset_of


@lru_cache(maxsize=None)
def reachability_table(S: WeylSubset) -> tuple[int, ...]:
    """Per-vertex bitmasks of the vertices that reach it (bit u of entry v
    for u reaching v; entry 0 is unused): the closure of the upward arcs.
    Defined for any orientation."""
    before = S.before
    table = [0] * (S.n + 1)
    for v in range(1, S.n + 1):
        table[v] = 1 << v
        for u in mask_members(before[v] & ((1 << v) - 2)):
            table[v] |= table[u]
    return tuple(table)


def is_reachable(j: int, i: int, S: WeylSubset) -> bool:
    """True when an increasing oriented path runs from j to i.

    Every vertex reaches itself; for j > i the relation is empty, so the
    answer is False.  Defined for any orientation.
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
    return {v for v in range(1, S.n + 1) if not S.before[v]}


def largest_source(S: WeylSubset) -> int:
    """The maximum vertex label among the sources."""
    return max(sources(S))


@lru_cache(maxsize=None)
def reachable_masks(S: WeylSubset) -> tuple[frozenset[int], ...]:
    """Entry k, for k = 0, ..., n: the k-sets reachable from {1, ..., k} in
    the orientation S, as bitmasks (bit v for vertex v).

    Level k adds to each reachable (k - 1)-set a vertex t outside it that k
    reaches: by the pairing induction these are exactly the reachable k-sets.
    Defined for any orientation; the reachable sets are cached here alone.
    """
    table = reachability_table(S)
    level = frozenset({0})
    levels = [level]
    for k in range(1, S.n + 1):
        reached = [1 << t for t in range(k, S.n + 1) if table[t] >> k & 1]
        level = frozenset({mask | bit for mask in level for bit in reached if not mask & bit})
        levels.append(level)
    return tuple(levels)


def reachable_sets(S: WeylSubset, k: int) -> tuple[KTuple, ...]:
    """The increasing k-tuples whose underlying set is reachable from
    {1, ..., k} in the orientation S, in lexicographic order.  Defined for
    any orientation.  Only the masks are cached: each call lists and sorts
    the members of level k of reachable_masks(S).
    """
    if not 1 <= k <= S.n - 1:
        raise ValueError(f"k out of range: {k}")
    return tuple(sorted(map(mask_members, reachable_masks(S)[k])))


def reachable_tuples(w: Perm, h: Hessenberg, k: int) -> tuple[KTuple, ...]:
    """reachable_sets for the Weyl-type subset of w under h; the same
    tuples in the same order, and the same ValueError for a bad k."""
    return reachable_sets(weyl_subset_of(w, h), k)
