"""
Increasing-path reachability on an oriented incomparability graph, whose
edges are the roots selected by h.  A Weyl-type subset S is its own
orientation: the edges in S point downward, the rest upward.

Vertex i is reachable from j <= i when a strictly increasing vertex
sequence j = v0 < v1 < ... < vm = i follows oriented edges (m = 0 allowed,
so every vertex reaches itself).  Only edges oriented from smaller to
larger vertex can appear on such a path, so the relation is the transitive
closure of the upward arcs; a bitmask closure table is precomputed once per
subset and shared by all queries.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

from .hessenberg import Hessenberg
from .orders import KTuple
from .perms import Perm
from .weyl import WeylSubset, is_acyclic, weyl_subset_of


@lru_cache(maxsize=None)
def reachability_table(S: WeylSubset) -> tuple[int, ...]:
    """Per-vertex bitmasks of reachable vertices (bit i - 1 for vertex i)."""
    n = S.n
    up: list[list[int]] = [[] for _ in range(n + 1)]
    for tail, head in S.arcs():
        if tail < head:
            up[tail].append(head)
    table = [0] * (n + 1)
    for v in range(n, 0, -1):
        bits = 1 << (v - 1)
        for b in up[v]:
            bits |= table[b]
        table[v] = bits
    return tuple(table[1:])


def is_reachable(j: int, i: int, S: WeylSubset) -> bool:
    """True when an increasing oriented path runs from j to i.

    Every vertex reaches itself; for j > i the relation is empty, so the
    answer is False.
    """
    n = S.n
    if not (1 <= j <= n and 1 <= i <= n):
        raise ValueError(f"vertex out of range: {(j, i)}")
    if j > i:
        return False
    return bool(reachability_table(S)[j - 1] >> (i - 1) & 1)


def sources(S: WeylSubset) -> set[int]:
    """Vertices whose incident edges all point away (isolated vertices
    included).  Rejects cyclic orientations, which need not have one."""
    if not is_acyclic(S):
        raise ValueError("orientation has a directed cycle")
    heads = {head for _, head in S.arcs()}
    return set(range(1, S.n + 1)) - heads


def largest_source(S: WeylSubset) -> int:
    """The maximum vertex label among the sources."""
    return max(sources(S))


def set_reachable(from_set: Iterable[int], to_set: Iterable[int], S: WeylSubset) -> bool:
    """True when some bijection pairs every vertex of from_set with a vertex
    of to_set reachable from it.

    Decided by augmenting-path bipartite matching over the reachability
    relation; the sets must have equal cardinality.
    """
    src = sorted(set(from_set))
    dst = sorted(set(to_set))
    if len(src) != len(dst):
        raise ValueError(f"cardinality mismatch: {len(src)} vs {len(dst)}")
    table = reachability_table(S)
    matched: dict[int, int] = {}

    def augment(si: int, seen: set[int]) -> bool:
        b = src[si]
        for a in dst:
            if a not in seen and b <= a and table[b - 1] >> (a - 1) & 1:
                seen.add(a)
                if a not in matched or augment(matched[a], seen):
                    matched[a] = si
                    return True
        return False

    return all(augment(si, set()) for si in range(len(src)))


def reachable_tuples(w: Perm, h: Hessenberg, k: int) -> tuple[KTuple, ...]:
    """The increasing k-tuples whose underlying set is reachable from
    {1, ..., k} in the orientation attached to w, in lexicographic order.

    (1, ..., k) itself always qualifies via the identity pairing.
    """
    n = len(w)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k out of range: {k}")
    S = weyl_subset_of(w, h)
    base = range(1, k + 1)
    return tuple(
        t
        for t in itertools.combinations(range(1, n + 1), k)
        if set_reachable(base, t, S)
    )
