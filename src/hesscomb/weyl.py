"""
Subsets of Weyl type and the partition of the symmetric group they induce.

Fix a Hessenberg function h and let R be the set of positive roots it
selects.  A subset S of R has Weyl type when both S and R \\ S are closed
under the root addition (i, j) + (j, k) = (i, k) inside R.  These are
exactly the sets N(w) & R for w a permutation; the permutations sharing a
given S form a class that is an interval in weak left order, and S
corresponds to an acyclic orientation of the incomparability graph by
pointing the edge (j, i), j < i, downward (i -> j) exactly when (j, i)
lies in S.

Worked example, h = (3, 4, 4, 4) and S = {(1, 3), (2, 3)}: edges (1, 3)
and (2, 3) point downward (3 -> 1 and 3 -> 2), the other three edges point
upward, the largest source of the digraph is 3, and peeling sources from
the top gives the class maximum (2, 3, 1, 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .hessenberg import (
    Hessenberg,
    IncompGraph,
    delete_vertex,
    hessenberg_roots,
    incomparability_graph,
    validate_hessenberg,
)
from .orders import weak_interval
from .perms import (
    Perm,
    Root,
    all_perms,
    compose,
    inverse,
    inversion_set,
    longest_element,
)


class InvariantError(RuntimeError):
    """An internal consistency condition failed; this signals a bug in the
    library, never bad input."""


@dataclass(frozen=True)
class WeylSubset:
    """A Weyl-type subset of the roots selected by h."""

    roots: frozenset[Root]
    h: Hessenberg

    @property
    def n(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class Orientation:
    """An orientation of an incomparability graph.

    `left` holds the edges (j, i), j < i, pointing downward (i -> j); every
    other edge points upward (j -> i).
    """

    graph: IncompGraph
    left: frozenset[tuple[int, int]]

    @property
    def n(self) -> int:
        return self.graph.n

    def arcs(self) -> frozenset[tuple[int, int]]:
        """All directed pairs (tail, head)."""
        return frozenset(
            (b, a) if (a, b) in self.left else (a, b) for a, b in self.graph.edges
        )


def is_acyclic(o: Orientation) -> bool:
    """True when the oriented graph has no directed cycle."""
    n = o.n
    out_arcs: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    indeg = dict.fromkeys(range(1, n + 1), 0)
    for tail, head in o.arcs():
        out_arcs[tail].append(head)
        indeg[head] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for u in out_arcs[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                ready.append(u)
    return seen == n


def find_closure_violation(
    roots: Iterable[Root], h: Hessenberg
) -> Optional[tuple[Root, Root, str]]:
    """Locate a failed root-addition closure, or None when S has Weyl type.

    Returns (a, b, side) where a + b lands in the selected roots but outside
    `side` ("subset" or "complement").  Roots outside the selected set are
    rejected outright.
    """
    allowed = hessenberg_roots(h)
    subset = frozenset(roots)
    stray = subset - allowed
    if stray:
        raise ValueError(
            f"root {min(stray)} is not selected by h = {list(h)}"
        )
    for side, part in (("subset", subset), ("complement", allowed - subset)):
        by_first: dict[int, list[Root]] = {}
        for r in part:
            by_first.setdefault(r[0], []).append(r)
        for a, b in part:
            for _, c in by_first.get(b, ()):
                if (a, c) in allowed and (a, c) not in part:
                    return ((a, b), (b, c), side)
    return None


def is_weyl_type(roots: Iterable[Root], h: Hessenberg) -> bool:
    """True when both roots and its complement in the selected roots are
    closed under root addition.  Roots outside the selected set are errors,
    not False."""
    return find_closure_violation(roots, h) is None


def make_weyl_subset(roots: Iterable[Root], h: Hessenberg) -> WeylSubset:
    """Build a WeylSubset, raising with a closure diagnostic when invalid."""
    h = validate_hessenberg(h)
    violation = find_closure_violation(roots, h)
    if violation is not None:
        (a, b), (c, d), side = violation
        raise ValueError(
            f"{side} not closed under root addition: "
            f"({a},{b}) + ({c},{d}) = ({a},{d}) is selected by h but missing"
        )
    return WeylSubset(roots=frozenset(roots), h=h)


@lru_cache(maxsize=None)
def weyl_subset_of(w: Perm, h: Hessenberg) -> WeylSubset:
    """The Weyl-type subset N(w) & (roots selected by h) attached to w."""
    if len(w) != len(h):
        raise ValueError(f"size mismatch: {len(w)} vs {len(h)}")
    S = WeylSubset(roots=inversion_set(w) & hessenberg_roots(h), h=tuple(h))
    if not is_weyl_type(S.roots, S.h):
        raise InvariantError(f"N({list(w)}) & roots of h = {list(h)} is not of Weyl type")
    return S


@lru_cache(maxsize=None)
def enumerate_weyl_subsets(h: Hessenberg) -> frozenset[WeylSubset]:
    """All Weyl-type subsets for h, as the deduplicated image of the
    symmetric group under w -> N(w) & (selected roots)."""
    return frozenset(weyl_subset_of(w, h) for w in all_perms(len(h)))


def weyl_subsets_sorted(h: Hessenberg) -> list[WeylSubset]:
    """The Weyl-type subsets of h, ordered by their sorted root lists."""
    return sorted(enumerate_weyl_subsets(h), key=lambda S: sorted(S.roots))


def complement(S: WeylSubset) -> WeylSubset:
    """The complementary Weyl-type subset inside the selected roots."""
    return WeylSubset(roots=hessenberg_roots(S.h) - S.roots, h=S.h)


def orientation_of(S: WeylSubset) -> Orientation:
    """Point the edge (j, i), j < i, downward (i -> j) exactly when the root
    (j, i) lies in S.  Always acyclic for a Weyl-type subset."""
    return Orientation(graph=incomparability_graph(S.h), left=S.roots)


def subset_of_orientation(o: Orientation) -> WeylSubset:
    """Inverse of orientation_of.  Rejects orientations with a directed
    cycle; round-trips exactly on acyclic ones."""
    if not is_acyclic(o):
        raise ValueError("orientation has a directed cycle")
    S = WeylSubset(roots=o.left, h=o.graph.h)
    if not is_weyl_type(S.roots, S.h):
        raise InvariantError("an acyclic orientation gave a subset not of Weyl type")
    return S


@lru_cache(maxsize=None)
def max_element(S: WeylSubset) -> Perm:
    """The weak-order maximum of class_of(S), by source peeling.

    Repeatedly assign the next value 1, 2, 3, ... to the largest source of
    the orientation restricted to the remaining vertices, then delete it.
    An acyclic orientation always has a source, so the peel completes.
    """
    arcs = orientation_of(S).arcs()
    remaining = set(range(1, S.n + 1))
    w = [0] * S.n
    for value in range(1, S.n + 1):
        blocked = {head for tail, head in arcs if tail in remaining and head in remaining}
        k = max(remaining - blocked)
        w[k - 1] = value
        remaining.discard(k)
    return tuple(w)


@lru_cache(maxsize=None)
def min_element(S: WeylSubset) -> Perm:
    """The weak-order minimum of class_of(S).

    Computed as w0 times the maximum of the complement class; left
    multiplication by the longest element exchanges the two classes and
    reverses weak order.
    """
    w0 = longest_element(S.n)
    z = compose(w0, max_element(complement(S)))
    allowed = hessenberg_roots(S.h)
    if inversion_set(z) & allowed != S.roots:
        raise InvariantError(f"class minimum {list(z)} does not have the roots of S")
    # minimality criterion: z^{-1} applied to each negative simple root,
    # whenever positive, must be a selected root
    zinv = inverse(z)
    for i in range(1, S.n):
        a, b = zinv[i], zinv[i - 1]
        if a < b and (a, b) not in allowed:
            raise InvariantError(f"class minimum {list(z)} fails the minimality criterion")
    return z


@lru_cache(maxsize=None)
def class_of(S: WeylSubset) -> frozenset[Perm]:
    """All permutations w with N(w) & (selected roots) = S: the weak-order
    interval between min_element(S) and max_element(S)."""
    return weak_interval(min_element(S), max_element(S))


def induced_subset(S: WeylSubset, k: int) -> WeylSubset:
    """Restrict S to the vertices other than k, relabeled 1..n-1.

    The result is the Weyl-type subset of delete_vertex(S.h, k) whose
    orientation is the restriction of the orientation of S; meaningful for
    the class induction when k is a source, but defined for any vertex.
    """
    if not 1 <= k <= S.n:
        raise ValueError(f"vertex out of range: {k}")
    reduced = delete_vertex(S.h, k)

    def relabel(v: int) -> int:
        return v - 1 if v > k else v

    roots = frozenset(
        (relabel(a), relabel(b)) for a, b in S.roots if a != k and b != k
    )
    out = WeylSubset(roots=roots, h=reduced)
    if not is_weyl_type(out.roots, out.h):
        raise InvariantError(f"S with vertex {k} deleted is not of Weyl type")
    return out
