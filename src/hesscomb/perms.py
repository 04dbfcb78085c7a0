"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation w is the tuple (w(1), ..., w(n)) of values 1..n.  Roots of the
type A root system are ordered pairs (i, j) with i != j, standing for
t_i - t_j; a root is positive exactly when i < j.  All indices are 1-based.
A set of values is often held as a bitmask, bit v for value v.
mask_members lists a mask's members and is memoised on the mask; every loop
of the package that reads a mask's members reads them there.  image_family
moves a family of prefix masks through a permutation.
prefix_listing grows the permutations with given prefix sets, in
lexicographic order, and prefix_listing_json grows that listing straight
into its JSON text: one growth builds both kinds of row, from per-value
atoms (1-tuples, or text pieces), and since it orders the rows by their
values alone, the text rows come out in lexicographic order too.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

Perm = tuple[int, ...]
Root = tuple[int, int]


def validate_perm(values: Iterable[int]) -> Perm:
    """Return values as a tuple, checking it is a bijection of {1, ..., n}
    for some n >= 1.

    >>> validate_perm([2, 3, 1, 4])
    (2, 3, 1, 4)
    """
    w = tuple(values)
    if not w:
        raise ValueError("n must be >= 1, got 0")
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {list(w)}")
    return w


def identity(n: int) -> Perm:
    """The identity permutation (1, 2, ..., n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation [n, n-1, ..., 2, 1], the unique
    element of maximal length n(n-1)/2.

    >>> longest_element(4)
    (4, 3, 2, 1)
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(range(n, 0, -1))


def front_cycle(n: int, k: int) -> Perm:
    """The cycle [2, 3, ..., k, 1, k+1, ..., n] sending i to i + 1 for i < k
    and k to 1; equal to the product of the first k - 1 simple reflections
    and of length k - 1.  front_cycle(n, 1) is the identity.

    >>> front_cycle(4, 3)
    (2, 3, 1, 4)
    """
    if not 1 <= k <= n:
        raise ValueError(f"k out of range: {k}")
    return tuple(range(2, k + 1)) + (1,) + tuple(range(k + 1, n + 1))


def compose(a: Perm, b: Perm) -> Perm:
    """The product a b, acting as x -> a(b(x)).  a and b must be
    permutations of one rank; only the rank is checked, since the sweeps
    call this in their inner loops.

    >>> compose((2, 1, 3, 4), (1, 3, 2, 4))
    (2, 3, 1, 4)
    """
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return tuple(a[x - 1] for x in b)


def inverse(w: Perm) -> Perm:
    """The inverse permutation.  w must be a permutation and is not
    checked, since the sweeps call this in their inner loops.

    >>> inverse((2, 3, 1, 4))
    (3, 1, 2, 4)
    """
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def apply_to_root(w: Perm, r: Root) -> Root:
    """w sends t_i - t_j to t_{w(i)} - t_{w(j)}.  w must be a permutation
    and is not checked, since the sweeps call this in their inner loops."""
    i, j = r
    return (w[i - 1], w[j - 1])


def is_positive(r: Root) -> bool:
    """A root (i, j) is positive exactly when i < j."""
    return r[0] < r[1]


def positive_roots(n: int) -> frozenset[Root]:
    """All pairs (i, j) with 1 <= i < j <= n."""
    return frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


@lru_cache(maxsize=None)
def inversion_set(w: Perm) -> frozenset[Root]:
    """The positive roots (i, j), i < j, with w(i) > w(j); exactly the
    positive roots that w sends to negative ones.  w must be a permutation
    and is not checked, since the sweeps call this in their inner loops.

    >>> sorted(inversion_set((2, 3, 1, 4)))
    [(1, 3), (2, 3)]
    """
    n = len(w)
    return frozenset(
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if w[i - 1] > w[j - 1]
    )


def length(w: Perm) -> int:
    """The number of inversions of w, counted on a mask of the values seen
    so far: each value x is inverted with the larger values before it.  It
    reads no inversion set, so the complement-involution check compares a
    length and an inversion set computed independently.  w must be a
    permutation and is not checked, since the sweeps call this in their
    inner loops.

    >>> length((2, 3, 1, 4))
    2
    """
    count = seen = 0
    for x in w:
        count += (seen >> x).bit_count()
        seen |= 1 << x
    return count


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """All n! permutations of [n], in lexicographic one-line order,
    materialized once and cached."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def mask_members(mask: int) -> tuple[int, ...]:
    """The increasing tuple of the values v whose bit v is set, read off the
    set bits one by one, so the cost follows the members and not the width.
    It is the package's one member table, cached on the mask: masks of
    bits 1..n number 2^n, so the cache holds at most 2^n entries for the
    largest rank n a caller uses, and only the masks actually read.

    >>> mask_members(0b1010)
    (1, 3)
    """
    members = []
    while mask:
        low = mask & -mask
        mask ^= low
        members.append(low.bit_length() - 1)
    return tuple(members)


def image_family(family: Sequence[Iterable[int]], w: Perm) -> list[set[int]]:
    """The family moved through w: bit x of every mask becomes bit w(x), so
    its prefix listing is w times each permutation the family lists.  w must
    be a permutation of 1..len(family): its size, and then validate_perm,
    raise ValueError before any level is read.

    >>> image_family([{0b10}, {0b110}], (2, 1))  # the listing [(1, 2)] becomes [(2, 1)]
    [{4}, {6}]
    """
    if len(w) != len(family):
        raise ValueError(f"size mismatch: {len(family)} vs {len(w)}")
    validate_perm(w)
    at = ([0] + [1 << v for v in w]).__getitem__  # at(x) stands for the value w(x)
    return [{sum(map(at, mask_members(mask))) for mask in level} for level in family]


def _grow(allowed: Sequence[Iterable[int]], first: Sequence, rest: Sequence, end) -> list:
    """The rows of prefix_listing(allowed), each built from atoms: value v
    enters as first[v] at the front of a row and as rest[v] anywhere else,
    and end closes the row."""
    n = len(allowed)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    full = (1 << n + 1) - 2
    suffixes = {full: [end]} if full in allowed[-1] else {}
    for k in range(n - 1, -1, -1):
        atoms = rest if k else first
        suffixes = {mask: [atoms[v] + s for v in mask_members(full & ~mask)
                           for s in suffixes.get(mask | 1 << v, ())]
                    for mask in (allowed[k - 1] if k else (0,))}
    return suffixes.get(0, [])


def prefix_listing(allowed: Sequence[Iterable[int]]) -> list[Perm]:
    """The permutations u of [n], n = len(allowed) >= 1, whose first k values
    form a bitmask (bit v for value v) in allowed[k - 1], in lexicographic
    order; rank 0 (allowed empty) raises ValueError, as validate_perm does.

    The listing is grown from the back: a suffix is kept when the values it
    leaves out form an allowed prefix set, and the suffixes that such a set
    leaves are listed by their first value, then by the suffixes that follow
    it, so each list is in lexicographic order.  The suffixes that leave out
    no value are the listing.  The same growth serves prefix_listing_json:
    it only joins each value's atom to the suffixes in that order, and the
    atoms here are the 1-tuples (v,), shared by every row.

    >>> prefix_listing([{0b10, 0b100}, {0b110}])
    [(1, 2), (2, 1)]
    >>> prefix_listing([{0b10, 0b1000}, {0b110}, {0b1110}])  # {3} extends to nothing
    [(1, 2, 3)]
    """
    atoms = [(v,) for v in range(len(allowed) + 1)]
    return _grow(allowed, atoms, atoms, ())


def prefix_listing_json(allowed: Sequence[Iterable[int]]) -> str:
    """json.dumps(prefix_listing(allowed)), grown as its text: the rows are
    built from "[v", ", v" and "]" in the same lexicographic order.  Rank 0
    raises ValueError, as prefix_listing does.

    >>> prefix_listing_json([{0b10, 0b100}, {0b110}])
    '[[1, 2], [2, 1]]'
    >>> prefix_listing_json([set(), {0b110}])  # no first value is allowed
    '[]'
    """
    n = len(allowed)
    first = [f"[{v}" for v in range(n + 1)]
    rest = [f", {v}" for v in range(n + 1)]
    return "[" + ", ".join(_grow(allowed, first, rest, "]")) + "]"

