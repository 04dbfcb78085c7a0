"""
Brute-force counterparts of the production routes, for cross-checking:
cover closure for Bruhat order, definition filters for classes and weak
intervals, pairing enumeration for set reachability, and orientation
enumeration with an explicit cycle check.  Exponential on purpose; hard
caps keep them honest.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable

from .hessenberg import Hessenberg, hessenberg_roots
from .perms import Perm, all_perms, inversion_set, length
from .reach import is_reachable
from .weyl import WeylSubset, is_acyclic


@lru_cache(maxsize=None)
def _cover_closure(n: int) -> tuple[dict[Perm, int], list[int]]:
    """Index and upward-closure bitmasks of the cover relation u -> u t,
    t a transposition raising length by exactly one."""
    perms = all_perms(n)
    index = {p: i for i, p in enumerate(perms)}
    above = [0] * len(perms)
    # in decreasing length order every cover is already closed when reached
    for p in sorted(perms, key=length, reverse=True):
        bits = 1 << index[p]
        lp = length(p)
        for i in range(n - 1):
            for j in range(i + 1, n):
                q = list(p)
                q[i], q[j] = q[j], q[i]
                cover = tuple(q)
                if length(cover) == lp + 1:
                    bits |= above[index[cover]]
        above[index[p]] = bits
    return index, above


def bruhat_leq_by_covers(w: Perm, v: Perm) -> bool:
    """Bruhat order as the reflexive-transitive closure of covers."""
    n = len(w)
    if len(v) != n:
        raise ValueError(f"size mismatch: {n} vs {len(v)}")
    if n > 6:
        raise ValueError(f"cover-closure oracle capped at n = 6, got {n}")
    index, above = _cover_closure(n)
    return bool(above[index[w]] >> index[v] & 1)


def class_by_filter(S: WeylSubset) -> frozenset[Perm]:
    """The class of S straight from its definition: filter the symmetric
    group on N(w) & (selected roots) = S."""
    n = len(S.h)
    if n > 7:
        raise ValueError(f"definition filter capped at n = 7, got {n}")
    allowed = hessenberg_roots(S.h)
    return frozenset(
        w for w in all_perms(n) if inversion_set(w) & allowed == S.roots
    )


def weak_interval(lo: Perm, hi: Perm) -> frozenset[Perm]:
    """All v with N(lo) contained in N(v) contained in N(hi)."""
    lo_inv, hi_inv = inversion_set(lo), inversion_set(hi)
    return frozenset(
        v for v in all_perms(len(lo)) if lo_inv <= inversion_set(v) <= hi_inv
    )


def set_reachable_by_enumeration(
    from_set: Iterable[int], to_set: Iterable[int], S: WeylSubset
) -> bool:
    """Set reachability by trying all pairings of the two sets."""
    src = sorted(set(from_set))
    dst = sorted(set(to_set))
    if len(src) != len(dst):
        raise ValueError(f"cardinality mismatch: {len(src)} vs {len(dst)}")
    if len(src) > 6:
        raise ValueError(f"pairing oracle capped at 6 elements, got {len(src)}")
    return any(
        all(is_reachable(b, a, S) for b, a in zip(src, pairing))
        for pairing in itertools.permutations(dst)
    )


def acyclic_orientations_by_enumeration(h: Hessenberg) -> frozenset[WeylSubset]:
    """The downward-edge sets of all orientations of the incomparability
    graph of h, as root subsets, filtered by the cycle check."""
    edges = sorted(hessenberg_roots(h))
    if len(edges) > 20:
        raise ValueError(f"orientation oracle capped at 20 edges, got {len(edges)}")
    out = set()
    for downward in itertools.product((False, True), repeat=len(edges)):
        S = WeylSubset(
            roots=frozenset(e for e, down in zip(edges, downward) if down),
            h=h,
        )
        if is_acyclic(S):
            out.add(S)
    return frozenset(out)
