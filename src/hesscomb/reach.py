"""
Increasing-path reachability on an oriented incomparability graph, whose
edges are the roots selected by h.

Vertex i is reachable from j <= i when a strictly increasing vertex
sequence j = v0 < v1 < ... < vm = i follows oriented edges (m = 0 allowed,
so every vertex reaches itself).  Only edges oriented from smaller to
larger vertex can appear on such a path, so the relation is the transitive
closure of the upward arcs; a bitmask closure table is precomputed once per
orientation and shared by all queries.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

from .hessenberg import Hessenberg, hessenberg_roots
from .orders import KTuple
from .perms import Perm
from .weyl import Orientation, is_acyclic, orientation_of, weyl_subset_of


@lru_cache(maxsize=None)
def reachability_table(o: Orientation) -> tuple[int, ...]:
    """Per-vertex bitmasks of reachable vertices (bit i - 1 for vertex i)."""
    n = o.n
    up: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in hessenberg_roots(o.h) - o.left:
        up[a].append(b)
    table = [0] * (n + 1)
    for v in range(n, 0, -1):
        bits = 1 << (v - 1)
        for b in up[v]:
            bits |= table[b]
        table[v] = bits
    return tuple(table[1:])


def is_reachable(j: int, i: int, o: Orientation) -> bool:
    """True when an increasing oriented path runs from j to i.

    Every vertex reaches itself; for j > i the relation is empty, so the
    answer is False.
    """
    n = o.n
    if not (1 <= j <= n and 1 <= i <= n):
        raise ValueError(f"vertex out of range: {(j, i)}")
    if j > i:
        return False
    return bool(reachability_table(o)[j - 1] >> (i - 1) & 1)


def sources(o: Orientation) -> set[int]:
    """Vertices whose incident edges all point away (isolated vertices
    included).  Rejects cyclic orientations, which need not have one."""
    if not is_acyclic(o):
        raise ValueError("orientation has a directed cycle")
    heads = {head for _, head in o.arcs()}
    return set(range(1, o.n + 1)) - heads


def largest_source(o: Orientation) -> int:
    """The maximum vertex label among the sources."""
    return max(sources(o))


def set_reachable(from_set: Iterable[int], to_set: Iterable[int], o: Orientation) -> bool:
    """True when some bijection pairs every vertex of from_set with a vertex
    of to_set reachable from it.

    Decided by augmenting-path bipartite matching over the reachability
    relation; the sets must have equal cardinality.
    """
    src = sorted(set(from_set))
    dst = sorted(set(to_set))
    if len(src) != len(dst):
        raise ValueError(f"cardinality mismatch: {len(src)} vs {len(dst)}")
    table = reachability_table(o)
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
    o = orientation_of(weyl_subset_of(w, h))
    base = range(1, k + 1)
    return tuple(
        t
        for t in itertools.combinations(range(1, n + 1), k)
        if set_reachable(base, t, o)
    )
