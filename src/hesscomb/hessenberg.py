"""
Hessenberg functions, the roots they select, and vertex deletion.

A Hessenberg function h: [n] -> [n] is nondecreasing with h(i) >= i; it is
written by listing its values, e.g. (3, 4, 4, 4).  It selects the positive
roots (i, j) with i < j <= h(i).  Its incomparability graph joins vertices
j < i exactly when i <= h(j), so the graph on [n] is read straight off
hessenberg_roots(h): each selected root (j, i) is the edge {j, i}, and no
separate graph type exists.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator

from .perms import Perm, Root, inversion_set, validate_perm

Hessenberg = tuple[int, ...]


def validate_hessenberg(values: Iterable[int]) -> Hessenberg:
    """Return values as a tuple, checking the Hessenberg conditions.

    Each failure mode gets its own diagnostic: a value below the diagonal,
    a value above n, or a decrease.
    """
    h = tuple(values)
    n = len(h)
    if n < 1:
        raise ValueError("empty Hessenberg function")
    for i in range(n - 1):
        if h[i] > h[i + 1]:
            raise ValueError(f"not nondecreasing at position {i + 1}: h = {list(h)}")
    for i, v in enumerate(h, start=1):
        if v < i:
            raise ValueError(f"h({i}) = {v} is below the diagonal (h(i) >= i required)")
        if v > n:
            raise ValueError(f"h({i}) = {v} exceeds n = {n}")
    return h


@lru_cache(maxsize=None)
def hessenberg_roots(h: Hessenberg) -> frozenset[Root]:
    """The positive roots (i, j) with i < j <= h(i) selected by h.  Each cache
    miss checks h, so a malformed h raises ValueError for every reader."""
    validate_hessenberg(h)
    return frozenset(
        (i, j) for i in range(1, len(h) + 1) for j in range(i + 1, h[i - 1] + 1)
    )


def hessenberg_length(w: Perm, h: Hessenberg) -> int:
    """Number of inversions (i, j) of w with j <= h(i); the dimension of the
    Hessenberg Schubert cell of w.  w must be a permutation and h a
    Hessenberg function, or ValueError is raised."""
    if len(w) != len(h):
        raise ValueError(f"size mismatch: {len(w)} vs {len(h)}")
    validate_perm(w)
    return len(inversion_set(w) & hessenberg_roots(h))


def total_dimension(h: Hessenberg) -> int:
    """Sum of h(i) - i, the dimension of the regular semisimple Hessenberg
    variety; equals the number of selected roots and of graph edges.  A
    malformed h raises ValueError."""
    validate_hessenberg(h)
    return sum(v - i for i, v in enumerate(h, start=1))


def delete_vertex(h: Hessenberg, k: int) -> Hessenberg:
    """Delete vertex k from the incomparability graph of h.

    The result is the Hessenberg function on the surviving vertices,
    relabeled 1..n-1 in increasing original order.  Computed on the
    staircase diagram (box (i, j) present iff i <= h(j)) by removing row k
    and column k and reading off the new column heights; the graph of the
    result is the vertex-deleted graph under the relabeling.  A malformed h
    raises ValueError.
    """
    n = len(validate_hessenberg(h))
    if not 1 <= k <= n:
        raise ValueError(f"vertex out of range: {k}")
    if n == 1:
        raise ValueError("cannot delete the only vertex")
    values = tuple(
        v - 1 if v >= k else v for j, v in enumerate(h, start=1) if j != k
    )
    return validate_hessenberg(values)


def enumerate_hessenberg(n: int) -> Iterator[Hessenberg]:
    """All Hessenberg functions on [n], in lexicographic order.

    There are Catalan(n) of them.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    def grow(prefix: list[int], i: int) -> Iterator[Hessenberg]:
        if i > n:
            yield tuple(prefix)
            return
        for v in range(max(i, prefix[-1] if prefix else 1), n + 1):
            prefix.append(v)
            yield from grow(prefix, i + 1)
            prefix.pop()

    yield from grow([], 1)
