"""
Partial orders on the symmetric group and on increasing k-tuples.

Bruhat order is decided by the sorted-prefix (tableau) criterion: w <= v
exactly when, for every k, the sorted first k values of w are componentwise
at most those of v.  bruhat_family writes the same criterion as one family
of allowed prefix sets per k, and bruhat_interval grows its members from
that family through perms.prefix_listing, with no scan of all n!
permutations; a translate moves that family by perms.image_family.  Weak
left order is inversion-set containment.

Level k of the family of [lo, hi] is the Gale-order interval of k-sets
between the prefix sets lo[:k] and hi[:k]; it depends on those two sets
alone, not on the order within the prefixes nor on the rest of lo and hi.
So each level is read from a table keyed on the pair of prefix masks and
grown once per key.  A rank has at most sum_k C(n, k)^2 = C(2n, n) such
pairs, and since a mask does not carry the rank, ranks below n share their
keys: the tables stay within C(2n, n) for every rank up to n.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet

from .perms import Perm, inversion_set, mask_members, prefix_listing, validate_perm

KTuple = tuple[int, ...]


def sort_action(w: Perm, t: KTuple) -> KTuple:
    """Apply w to the entries of t and re-sort increasingly.  w must be a
    permutation and is not checked, since the sweeps call this in their
    inner loops.

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
    with its own tests; the CLI and verify's order checks and j-set-formula
    read bruhat_family, and the other checks bruhat_interval.
    w and v must be permutations of one rank, or ValueError is raised.

    >>> bruhat_leq((2, 3, 1, 4), (2, 3, 4, 1))
    True
    """
    if len(w) != len(v):
        raise ValueError(f"size mismatch: {len(w)} vs {len(v)}")
    validate_perm(w)
    validate_perm(v)
    return all(
        x <= y for k in range(1, len(w)) for x, y in zip(sorted(w[:k]), sorted(v[:k]))
    )


def weak_left_leq(u: Perm, v: Perm) -> bool:
    """Weak left order: N(u) contained in N(v).  Implies Bruhat order.  u
    and v must be permutations of one rank; only the rank is checked, since
    the sweeps call this in their inner loops."""
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    return inversion_set(u) <= inversion_set(v)


@lru_cache(maxsize=None)
def _gale_table(low: int, high: int) -> frozenset[int]:
    """The k-sets (bit v for value v) whose sorted values lie componentwise
    between those of the k-sets low and high; empty when low is not below
    high.  The increasing k-tuples within the bounds are grown entry by
    entry, each held as its mask and its last entry; the bounds' values
    are read off their set bits, so no table spans the width of a mask."""
    grown = [(0, 0)]
    for a, b in zip(mask_members(low), mask_members(high)):
        grown = [(mask | 1 << x, x) for mask, last in grown
                 for x in range(max(a, last + 1), b + 1)]
    return frozenset(mask for mask, _ in grown)


def bruhat_family(lo: Perm, hi: Perm) -> list[AbstractSet[int]]:
    """The prefix sets of [lo, hi]: for each k, the k-sets (bit v for value v)
    whose sorted values lie componentwise between the sorted first k values
    of lo and of hi; image_family(bruhat_family(lo, hi), w) is the family of
    w [lo, hi].  The endpoints must be permutations of one rank: their
    sizes, and then validate_perm on lo and on hi, raise ValueError before
    any table is read.

    >>> [sorted(level) for level in bruhat_family((2, 1, 3), (3, 1, 2))]
    [[4, 8], [6, 10], [14]]
    """
    if len(hi) != len(lo):
        raise ValueError(f"size mismatch: {len(lo)} vs {len(hi)}")
    validate_perm(lo)
    validate_perm(hi)
    family, low, high = [], 0, 0
    for x, y in zip(lo, hi):
        low |= 1 << x
        high |= 1 << y
        family.append(_gale_table(low, high))
    return family


@lru_cache(maxsize=None)
def bruhat_interval(lo: Perm, hi: Perm) -> frozenset[Perm]:
    """All v with lo <= v <= hi in Bruhat order; empty when lo is not below hi."""
    return frozenset(prefix_listing(bruhat_family(lo, hi)))
