"""
Hessenberg functions and their incomparability graphs.

A Hessenberg function h: [n] -> [n] is nondecreasing with h(i) >= i; it is
written by listing its values, e.g. (3, 4, 4, 4).  It selects the positive
roots (i, j) with i < j <= h(i), and its incomparability graph joins
vertices j < i exactly when i <= h(j), so the edge set and the selected
root set are the same pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .perms import Perm, Root, inversion_set

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
    """The positive roots (i, j) with i < j <= h(i) selected by h."""
    return frozenset(
        (i, j) for i in range(1, len(h) + 1) for j in range(i + 1, h[i - 1] + 1)
    )


def hessenberg_length(w: Perm, h: Hessenberg) -> int:
    """Number of inversions (i, j) of w with j <= h(i); the dimension of the
    Hessenberg Schubert cell of w."""
    if len(w) != len(h):
        raise ValueError(f"size mismatch: {len(w)} vs {len(h)}")
    return len(inversion_set(w) & hessenberg_roots(h))


def total_dimension(h: Hessenberg) -> int:
    """Sum of h(i) - i, the dimension of the regular semisimple Hessenberg
    variety; equals the number of selected roots and of graph edges."""
    return sum(v - i for i, v in enumerate(h, start=1))


@dataclass(frozen=True)
class IncompGraph:
    """Undirected graph on vertices 1..n with edges stored as pairs (j, i),
    j < i, matching the roots selected by h."""

    h: Hessenberg
    edges: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.h)


@lru_cache(maxsize=None)
def incomparability_graph(h: Hessenberg) -> IncompGraph:
    """The graph on [n] joining j < i exactly when i <= h(j)."""
    return IncompGraph(h=tuple(h), edges=hessenberg_roots(tuple(h)))


def delete_vertex(h: Hessenberg, k: int) -> Hessenberg:
    """Delete vertex k from the incomparability graph of h.

    The result is the Hessenberg function on the surviving vertices,
    relabeled 1..n-1 in increasing original order.  Computed on the
    staircase diagram (box (i, j) present iff i <= h(j)) by removing row k
    and column k and reading off the new column heights; the graph of the
    result is the vertex-deleted graph under the relabeling.
    """
    n = len(h)
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
