"""
Subsets of Weyl type and the partition of the symmetric group they induce.

Fix a Hessenberg function h and let R be the set of positive roots it
selects.  A subset S of R has Weyl type when both S and R \\ S are closed
under the root addition (i, j) + (j, k) = (i, k) inside R.  These are
exactly the sets N(w) & R for w a permutation; the permutations sharing a
given S form a class that is an interval in weak left order.  The edges of
the incomparability graph are the roots in R, so S is its own orientation:
the edge (j, i), j < i, points downward (i -> j) exactly when (j, i) lies
in S, and that orientation is acyclic exactly when S has Weyl type.  The
class is the set of labelings of its topological orders (the k-th vertex
takes the value k, so the order is w^{-1}); peeling the largest source, the
smallest, or each in turn gives its maximum, minimum or order ideals, which
count and list it.  Peels and reach read S.before: bit u of entry v marks u -> v;
a peel keeps the ready vertices as a mask, and placing v tests only S.after[v].

Worked example, h = (3, 4, 4, 4) and S = {(1, 3), (2, 3)}: edges (1, 3)
and (2, 3) point downward (3 -> 1 and 3 -> 2), the other three edges point
upward, the largest source of the digraph is 3, and the peel gives the
class maximum (2, 3, 1, 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import xor
from typing import Iterable, Optional

from .hessenberg import (
    Hessenberg,
    delete_vertex,
    hessenberg_roots,
    validate_hessenberg,
)
from .perms import (
    Perm,
    Root,
    inverse,
    inversion_set,
    with_prefix_sets,
)


class InvariantError(RuntimeError):
    """An internal consistency condition failed; this signals a bug in the
    library, never bad input."""


@dataclass(frozen=True)
class WeylSubset:
    """A Weyl-type subset of the roots selected by h, which is also an
    orientation of the incomparability graph of h.

    The edges of that graph are the roots (j, i), j < i, selected by h;
    those in `roots` point downward (i -> j) and every other edge points
    upward (j -> i).  Equality and hashing read `roots` and `h` only.
    """

    roots: frozenset[Root]
    h: Hessenberg

    @property
    def n(self) -> int:
        return len(self.h)

    @cached_property
    def before(self) -> tuple[int, ...]:
        """The orientation as predecessor bitmasks, built once per instance:
        bit u of entry v is set when the arc u -> v makes u come before v
        (entry 0 is unused)."""
        before = [0] * (self.n + 1)
        for a, b in hessenberg_roots(self.h):
            head, tail = (a, b) if (a, b) in self.roots else (b, a)
            before[head] |= 1 << tail
        return tuple(before)

    @cached_property
    def after(self) -> tuple[int, ...]:
        """before transposed, built once per instance: bit v of entry u marks u -> v."""
        after = [0] * len(self.before)
        for v, into in enumerate(self.before):
            while into:
                after[(into & -into).bit_length() - 1] |= 1 << v
                into &= into - 1
        return tuple(after)

    def arcs(self) -> frozenset[tuple[int, int]]:
        """All directed pairs (tail, head)."""
        before = self.before
        return frozenset(
            (u, v) for v, into in enumerate(before) for u in range(len(before)) if into >> u & 1
        )


def _ready(before: tuple[int, ...], placed: int = 0, among: Optional[int] = None) -> int:
    """The vertices of among (default: all), none of them placed, whose
    predecessors are all placed, as a mask.  Placing v can make ready only
    the successors of v, so the peels pass among = S.after[v]."""
    ready = 0
    among = (1 << len(before)) - 2 if among is None else among
    while among:
        bit = among & -among
        among ^= bit
        if not before[bit.bit_length() - 1] & ~placed:
            ready |= bit
    return ready


def _peel(S: WeylSubset, smallest: bool = False) -> list[int]:
    """Vertices in the order they are removed, each the largest (or smallest)
    source of what is left; stops short of n when a directed cycle remains."""
    order: list[int] = []
    placed = 0
    ready = _ready(S.before)
    while ready:
        bit = ready & -ready if smallest else 1 << ready.bit_length() - 1
        placed |= bit
        order.append(bit.bit_length() - 1)
        ready = ready ^ bit | _ready(S.before, placed, S.after[order[-1]])
    return order


def is_acyclic(S: WeylSubset) -> bool:
    """True when the orientation of S has no directed cycle.  S may be any
    subset of the selected roots; the acyclic ones are those of Weyl type."""
    return len(_peel(S)) == S.n


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
        raise ValueError(f"root {min(stray)} is not selected by h = {list(h)}")
    # bit c of entry a marks (a, c) as selected, or as a root of the subset
    selected = [0] + [(2 << h[a - 1]) - (2 << a) for a in range(1, len(h) + 1)]
    inside = [0] * len(selected)
    for a, c in subset:
        inside[a] |= 1 << c
    for side, out in (("subset", inside), ("complement", list(map(xor, selected, inside)))):
        for a, b in allowed:
            missing = out[b] & selected[a] & ~out[a]
            if missing and out[a] >> b & 1:
                return ((a, b), (b, (missing & -missing).bit_length() - 1), side)
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
def enumerate_weyl_subsets(h: Hessenberg) -> tuple[WeylSubset, ...]:
    """All Weyl-type subsets for h, ordered by their sorted root lists, as
    N(w) & (selected roots) for one topological order w^{-1} of each
    acyclic orientation, grown vertex by vertex: c enters first or just
    after one of its earlier neighbours, a clique the order ranks totally,
    and S gains (j, c) for the neighbours after c.  No choice is a dead end
    or a repeat: prod(1 + a_c) subsets.  S is read off w over the sorted roots."""
    orders: list[Perm] = [()]
    for c in range(1, len(h) + 1):
        orders = [o[:at] + (c,) + o[at:] for o in orders
                  for at in [0] + [i + 1 for i, j in enumerate(o) if h[j - 1] >= c]]
    roots = sorted(hessenberg_roots(h))
    images = {tuple([r for r in roots if w[r[0] - 1] > w[r[1] - 1]]) for w in map(inverse, orders)}
    for image in images:
        if not is_weyl_type(image, h):
            raise InvariantError(f"grown {list(image)} for h = {list(h)} is not of Weyl type")
    return tuple(WeylSubset(roots=frozenset(image), h=h) for image in sorted(images))


def complement(S: WeylSubset) -> WeylSubset:
    """The complementary Weyl-type subset inside the selected roots."""
    return WeylSubset(roots=hessenberg_roots(S.h) - S.roots, h=S.h)


@lru_cache(maxsize=None)
def max_element(S: WeylSubset) -> Perm:
    """The weak-order maximum of class_of(S), by source peeling.

    The k-th vertex peeled from the orientation of S, always the largest
    source of what is left, takes the value k.  An acyclic orientation
    always has a source, so the peel completes.
    """
    order = _peel(S)
    if len(order) != S.n:
        raise InvariantError(f"the orientation of S = {sorted(S.roots)} has a directed cycle")
    return inverse(tuple(order))


def min_element(S: WeylSubset) -> Perm:
    """The weak-order minimum of class_of(S): the labeling of the
    topological order that always peels the smallest source of what is
    left."""
    order = _peel(S, smallest=True)
    if len(order) != S.n:
        raise InvariantError(f"the orientation of S = {sorted(S.roots)} has a directed cycle")
    z = inverse(tuple(order))
    allowed = hessenberg_roots(S.h)
    if {(a, b) for a, b in allowed if z[a - 1] > z[b - 1]} != S.roots:
        raise InvariantError(f"class minimum {list(z)} does not have the roots of S")
    # minimality criterion: z^{-1} (the peel order) applied to each negative
    # simple root, whenever positive, must be a selected root
    for i in range(1, S.n):
        a, b = order[i], order[i - 1]
        if a < b and (a, b) not in allowed:
            raise InvariantError(f"class minimum {list(z)} fails the minimality criterion")
    return z


def _ideal_counts(S: WeylSubset) -> list[dict[int, int]]:
    """For each size k, the order ideals of S with k vertices, each with its
    number of topological orders; size k + 1 adds one source of what is left."""
    ideals = [{0: 1}]
    ready = {0: _ready(S.before)}  # each ideal's sources, as a mask
    for _ in range(S.n):
        grown: dict[int, int] = {}
        for ideal, count in ideals[-1].items():
            left = ready[ideal]
            while left:
                bit = left & -left
                left ^= bit
                if ideal | bit not in grown:
                    ready[ideal | bit] = ready[ideal] ^ bit | _ready(
                        S.before, ideal | bit, S.after[bit.bit_length() - 1])
                grown[ideal | bit] = grown.get(ideal | bit, 0) + count
        ideals.append(grown)
    if not ideals[-1]:
        raise InvariantError(f"the orientation of S = {sorted(S.roots)} has a directed cycle")
    return ideals


def class_size(S: WeylSubset) -> int:
    """len(class_of(S)), counted on the order ideals without listing them.

    >>> class_size(WeylSubset(frozenset(), (1, 2, 3, 4)))
    24
    """
    return sum(_ideal_counts(S)[-1].values())


@lru_cache(maxsize=None)
def class_of(S: WeylSubset) -> frozenset[Perm]:
    """All w with N(w) & (selected roots) = S, the weak-order interval from
    min_element(S) to max_element(S), grown on the order ideals of S."""
    return frozenset(map(inverse, with_prefix_sets(_ideal_counts(S)[1:])))


def induced_subset(S: WeylSubset, k: int) -> WeylSubset:
    """Restrict S to the vertices other than k, relabeled 1..n-1.

    The result is the Weyl-type subset of delete_vertex(S.h, k) whose
    orientation is the restriction of the orientation of S; meaningful for
    the class induction when k is a source, but defined for any vertex.
    """
    if not 1 <= k <= S.n:
        raise ValueError(f"vertex out of range: {k}")
    roots = frozenset(tuple(v - 1 if v > k else v for v in r) for r in S.roots if k not in r)
    out = WeylSubset(roots=roots, h=delete_vertex(S.h, k))
    if not is_weyl_type(out.roots, out.h):
        raise InvariantError(f"S with vertex {k} deleted is not of Weyl type")
    return out
