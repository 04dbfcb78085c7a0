"""
Partial orders on the symmetric group and on increasing k-tuples.

Bruhat order is decided by the sorted-prefix (tableau) criterion: w <= v
exactly when, for every k, the sorted first k values of w are componentwise
at most those of v.  Weak left order is inversion-set containment.  Both
intervals filter the full symmetric group; no route calls weak_interval,
which stays as the reference for weyl.class_of.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache

from .perms import Perm, all_perms, inversion_set

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
    values of w must be componentwise <= those of v.

    >>> bruhat_leq((2, 3, 1, 4), (2, 3, 4, 1))
    True
    """
    if len(w) != len(v):
        raise ValueError(f"size mismatch: {len(w)} vs {len(v)}")
    prefix_w: list[int] = []
    prefix_v: list[int] = []
    for k in range(len(w) - 1):
        insort(prefix_w, w[k])
        insort(prefix_v, v[k])
        if any(x > y for x, y in zip(prefix_w, prefix_v)):
            return False
    return True


def weak_left_leq(u: Perm, v: Perm) -> bool:
    """Weak left order: N(u) contained in N(v).  Implies Bruhat order."""
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    return inversion_set(u) <= inversion_set(v)


@lru_cache(maxsize=None)
def bruhat_interval(lo: Perm, hi: Perm) -> frozenset[Perm]:
    """All v with lo <= v <= hi in Bruhat order; empty when lo is not below hi."""
    return frozenset(
        v for v in all_perms(len(lo)) if bruhat_leq(lo, v) and bruhat_leq(v, hi)
    )


def weak_interval(lo: Perm, hi: Perm) -> frozenset[Perm]:
    """All v with N(lo) contained in N(v) contained in N(hi)."""
    lo_inv, hi_inv = inversion_set(lo), inversion_set(hi)
    return frozenset(
        v for v in all_perms(len(lo)) if lo_inv <= inversion_set(v) <= hi_inv
    )
