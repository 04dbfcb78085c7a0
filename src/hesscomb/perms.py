"""
Permutations of [n] = {1, ..., n} in one-line notation.

A permutation w is the tuple (w(1), ..., w(n)) of values 1..n.  Roots of the
type A root system are ordered pairs (i, j) with i != j, standing for
t_i - t_j; a root is positive exactly when i < j.  All indices are 1-based.
with_prefix_sets grows the permutations with given prefix sets, set by set.
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
    """The product a b, acting as x -> a(b(x)).

    >>> compose((2, 1, 3, 4), (1, 3, 2, 4))
    (2, 3, 1, 4)
    """
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return tuple(a[x - 1] for x in b)


def inverse(w: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((2, 3, 1, 4))
    (3, 1, 2, 4)
    """
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def apply_to_root(w: Perm, r: Root) -> Root:
    """w sends t_i - t_j to t_{w(i)} - t_{w(j)}."""
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
    positive roots that w sends to negative ones.

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
    """The number of inversions of w."""
    return len(inversion_set(w))


@lru_cache(maxsize=None)
def all_perms(n: int) -> tuple[Perm, ...]:
    """All n! permutations of [n], in lexicographic one-line order,
    materialized once and cached."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return tuple(itertools.permutations(range(1, n + 1)))


def with_prefix_sets(allowed: Sequence[Iterable[int]]) -> frozenset[Perm]:
    """The set of permutations u of [n], n = len(allowed), whose first k
    values form a bitmask (bit v for value v) in allowed[k - 1].
    The prefixes of a mask are those of the mask less one value v, extended by v.

    >>> sorted(with_prefix_sets([{0b10, 0b100}, {0b110}]))
    [(1, 2), (2, 1)]
    >>> sorted(with_prefix_sets([{0b10, 0b1000}, {0b110}, {0b1110}]))  # {3} extends to nothing
    [(1, 2, 3)]
    """
    n = len(allowed)
    groups: dict[int, list[Perm]] = {0: [()]}
    for family in allowed:
        groups = {mask: [u + (v,) for v in range(1, n + 1) if mask >> v & 1
                         for u in groups.get(mask & ~(1 << v), ())] for mask in family}
    return frozenset(u for prefixes in groups.values() for u in prefixes)
