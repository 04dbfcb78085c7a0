"""
Partial orders on the symmetric group and on increasing k-tuples.

Bruhat order is decided by the sorted-prefix (tableau) criterion: w <= v
exactly when, for every k, the sorted first k values of w are componentwise
at most those of v.  bruhat_family writes the same criterion as one family
of allowed prefix sets per k, and bruhat_interval grows its members from
that family through perms.prefix_listing, with no scan of all n!
permutations.  Weak left order is inversion-set containment.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .perms import Perm, inversion_set, prefix_listing

KTuple = tuple[int, ...]


def sort_action(w: Perm, t: KTuple) -> KTuple:
    """Apply w to the entries of t and re-sort increasingly.

    >>> sort_action((2, 3, 1, 4), (1, 2))
    (2, 3)
    """
    return tuple(sorted(w[i - 1] for i in t))


def ktuple_leq(a: KTuple, b: KTuple) -> bool:
    """Componentwise comparison a[l] <= b[l] for all l.

    Tuples of unequal length are always a caller bug, hence an error
    rather than False.
    """
    if len(a) != len(b):
        raise ValueError(f"k-tuple length mismatch: {len(a)} vs {len(b)}")
    return all(x <= y for x, y in zip(a, b))


def bruhat_leq(w: Perm, v: Perm) -> bool:
    """Bruhat order via sorted prefixes: for every k < n the sorted first k
    values of w must be componentwise <= those of v.  A pair-by-pair reference
    with its own tests; verify and the interval route use bruhat_interval.

    >>> bruhat_leq((2, 3, 1, 4), (2, 3, 4, 1))
    True
    """
    if len(w) != len(v):
        raise ValueError(f"size mismatch: {len(w)} vs {len(v)}")
    return all(
        x <= y for k in range(1, len(w)) for x, y in zip(sorted(w[:k]), sorted(v[:k]))
    )


def weak_left_leq(u: Perm, v: Perm) -> bool:
    """Weak left order: N(u) contained in N(v).  Implies Bruhat order."""
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    return inversion_set(u) <= inversion_set(v)


def bruhat_family(lo: Perm, hi: Perm, shift: Optional[Perm] = None) -> list[set[int]]:
    """The prefix sets of [lo, hi]: for each k, the k-sets (bit v for value v)
    whose sorted values lie componentwise between the sorted first k values
    of lo and of hi.  With shift, those of the translate shift [lo, hi]: each
    value x stands as shift(x)."""
    n = len(lo)
    if len(hi) != n:
        raise ValueError(f"size mismatch: {n} vs {len(hi)}")
    values = range(1, n + 1) if shift is None else shift
    bit = [0] + [1 << v for v in values]  # bit[x] stands for the value x, or shift(x)
    family = []
    for k in range(1, n + 1):
        # the increasing k-tuples within the bounds, grown entry by entry,
        # each held as its mask and its last entry
        grown = [(0, 0)]
        for low, high in zip(sorted(lo[:k]), sorted(hi[:k])):
            grown = [(mask | bit[x], x) for mask, last in grown
                     for x in range(max(low, last + 1), high + 1)]
        family.append({mask for mask, _ in grown})
    return family


@lru_cache(maxsize=None)
def bruhat_interval(lo: Perm, hi: Perm) -> frozenset[Perm]:
    """All v with lo <= v <= hi in Bruhat order; empty when lo is not below hi."""
    return frozenset(prefix_listing(bruhat_family(lo, hi)))
