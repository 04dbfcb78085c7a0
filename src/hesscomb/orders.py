"""
Partial orders on the symmetric group and on increasing k-tuples.

Bruhat order is decided by the sorted-prefix (tableau) criterion: w <= v
exactly when, for every k, the sorted first k values of w are componentwise
at most those of v.  bruhat_interval grows its members by the same
criterion through perms.with_prefix_sets, with no scan of all n!
permutations.  Weak left order is inversion-set containment.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import le

from .perms import Perm, inversion_set, with_prefix_sets

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
    return all(
        x <= y for k in range(1, len(w)) for x, y in zip(sorted(w[:k]), sorted(v[:k]))
    )


def weak_left_leq(u: Perm, v: Perm) -> bool:
    """Weak left order: N(u) contained in N(v).  Implies Bruhat order."""
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    return inversion_set(u) <= inversion_set(v)


@lru_cache(maxsize=None)
def bruhat_interval(lo: Perm, hi: Perm) -> frozenset[Perm]:
    """All v with lo <= v <= hi in Bruhat order; empty when lo is not below hi."""
    n = len(lo)
    if len(hi) != n:
        raise ValueError(f"size mismatch: {n} vs {len(hi)}")
    bounds = [(sorted(lo[:k]), sorted(hi[:k])) for k in range(1, n + 1)]
    # every candidate t has the length of its bounds, so no length check is needed
    return with_prefix_sets([
        {sum(1 << v for v in t) for t in combinations(range(1, n + 1), len(low))
         if all(map(le, low, t)) and all(map(le, t, high))}
        for low, high in bounds
    ])
