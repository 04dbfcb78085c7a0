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
takes the value k, so the order is w^{-1}); peeling the largest source, or
each in turn, gives its maximum or order ideals, which count and list it; as
R \\ S reverses every arc, its peel read backwards is the minimum of S (second
lemma below).  Peels and reach read S.before: bit u of entry v marks u -> v;
a peel keeps the ready vertices as a mask, and placing v tests only S.after[v].
One criterion checks each extreme on the order of a maximum: its roots, and
that values k and k + 1 at positions a < b make (a, b) a selected root; a
minimum is checked as the maximum of R \\ S whose order it reverses.  A
WeylSubset with a root h does not select, or a malformed h, is a ValueError
when it is built; one built by hand may have a cycle, which is a ValueError
to each operation that needs a class.

A listing of every class of h (list_classes) peels nothing and walks no
order ideal, by three lemmas.  First, the order that the listing grows for
S is its largest-source peel (vertex c, the largest label so far, enters
first or just after its last predecessor), so its inverse is the class
maximum.  Second, w -> w0 w maps class(S) onto class(R \\ S) and reverses
weak order, since N(w0 w) is the complement of N(w); so the class minimum
of S is w0 times the class maximum of R \\ S, and the two classes have the
same size.  Third, the insertion that grows the order of S counts its
class.  Let a(v) be the smallest u with h(u) >= v.  Once 1..c are placed,
the live vertices [a(c + 1), c] are the earlier neighbours of c + 1, a
clique, so every topological order ranks them as S does.  Every other
placed vertex has retired: a is nondecreasing, so none of them has a later
neighbour, and the later vertices see only how many retired vertices lie
before, between and after the m live ones, a gap profile (g_0, ..., g_m).
So each partial order carries its number of topological orders per gap
profile.  Placing c + 1 after p live vertices splits g_p into (x, g_p - x)
for x = 0..g_p; then each vertex below a(c + 2) retires, merging the gaps
on its two sides and itself into one.  Vertex n has g_p + 1 places after p
live vertices, so the class size is the sum of count * (g_p + 1).

Worked example, h = (3, 4, 4, 4) and S = {(1, 3), (2, 3)}: edges (1, 3)
and (2, 3) point downward (3 -> 1 and 3 -> 2), the other three edges point
upward, the largest source of the digraph is 3, and the peel gives the
class maximum (2, 3, 1, 4).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from operator import and_, itemgetter, xor
from typing import Iterable, Optional, Sequence

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
    mask_members,
    prefix_listing,
    validate_perm,
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

    Any subset of those roots may be built, cyclic ones included; a root h
    does not select, or an h that is not a Hessenberg function, raises
    ValueError here.
    """

    roots: frozenset[Root]
    h: Hessenberg

    def __post_init__(self) -> None:
        stray = self.roots - hessenberg_roots(self.h)
        if stray:
            raise ValueError(f"root {min(stray)} is not selected by h = {list(self.h)}")

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
        """before transposed, built once per instance: bit v of entry u marks
        u -> v: the predecessor masks of R \\ S and, as every edge points one
        way, each vertex's neighbours other than its predecessors."""
        return tuple(map(xor, _neighbour_masks(self.h), self.before))

    def arcs(self) -> frozenset[tuple[int, int]]:
        """All directed pairs (tail, head)."""
        return frozenset(
            (u, v) for v, into in enumerate(self.before) for u in mask_members(into)
        )


def _ready(before: Sequence[int], placed: int = 0, among: Optional[int] = None) -> int:
    """The vertices of among (default: all), none of them placed, whose
    predecessors are all placed, as a mask.  Placing v can make ready only
    the successors of v, so the peels pass among = S.after[v]."""
    ready = 0
    among = (1 << len(before)) - 2 if among is None else among
    for v in mask_members(among):
        if not before[v] & ~placed:
            ready |= 1 << v
    return ready


def _peel(before: Sequence[int], after: Sequence[int]) -> list[int]:
    """Vertices in the order they are removed, each the largest source of
    what is left (before and after as in WeylSubset; swapping them reverses
    every arc); stops short of n when a directed cycle remains."""
    order: list[int] = []
    placed = 0
    ready = _ready(before)
    while ready:
        order.append(ready.bit_length() - 1)
        placed |= 1 << order[-1]
        ready = ready & ~placed | _ready(before, placed, after[order[-1]])
    return order


def is_acyclic(S: WeylSubset) -> bool:
    """True when the orientation of S has no directed cycle.  S may be any
    subset of the selected roots; the acyclic ones are those of Weyl type."""
    return len(_peel(S.before, S.after)) == S.n


def _neighbour_masks(h: Hessenberg) -> list[int]:
    """The incomparability graph of h as masks: bit c of entry a marks the
    edge between a and c (entry 0 is unused)."""
    neighbours = [0] * (len(h) + 1)
    for a, c in hessenberg_roots(h):
        neighbours[a] |= 1 << c
        neighbours[c] |= 1 << a
    return neighbours


def _selected_masks(h: Hessenberg) -> list[int]:
    """R as out-masks: bit c of entry a marks (a, c) as selected by h
    (entry 0 is unused)."""
    return [0] + [(2 << h[a - 1]) - (2 << a) for a in range(1, len(h) + 1)]


def _closure_violation(
    inside: Sequence[int], selected: list[int]
) -> Optional[tuple[Root, Root, str]]:
    """find_closure_violation on out-masks: bit c of inside[a] marks (a, c)
    as a root of S, and selected is _selected_masks(h).  Each side is tested
    a vertex at a time: the roots (b, d) reached through a's roots (a, b)
    may not select an (a, d) that the side lacks.  The first violation in
    (side, a, b, d) order is returned.  a's roots are read off their set
    bits by mask_members, so the cost is linear in the roots at any rank."""
    for side, out in (("subset", inside), ("complement", list(map(xor, selected, inside)))):
        for a, roots in enumerate(out):
            lacking = selected[a] & ~roots
            if lacking:
                for b in mask_members(roots):
                    missing = out[b] & lacking
                    if missing:
                        return ((a, b), (b, mask_members(missing)[0]), side)
    return None


def _violation(S: WeylSubset) -> Optional[tuple[Root, Root, str]]:
    """find_closure_violation for a built S, its roots read as out-masks."""
    inside = [0] * (S.n + 1)
    for a, c in S.roots:
        inside[a] |= 1 << c
    return _closure_violation(inside, _selected_masks(S.h))


def find_closure_violation(
    roots: Iterable[Root], h: Hessenberg
) -> Optional[tuple[Root, Root, str]]:
    """Locate a failed root-addition closure, or None when S has Weyl type.

    Returns (a, b, side) where a + b lands in the selected roots but outside
    `side` ("subset" or "complement").  Roots outside the selected set, and
    an h that is not a Hessenberg function, raise ValueError as WeylSubset
    does.
    """
    return _violation(WeylSubset(frozenset(roots), h))


def is_weyl_type(roots: Iterable[Root], h: Hessenberg) -> bool:
    """True when both roots and its complement in the selected roots are
    closed under root addition.  The roots may be any subset of the selected
    ones, cyclic ones included; roots outside the selected set are errors,
    not False."""
    return find_closure_violation(roots, h) is None


def make_weyl_subset(roots: Iterable[Root], h: Hessenberg) -> WeylSubset:
    """Build a WeylSubset, raising with a closure diagnostic when invalid."""
    S = WeylSubset(frozenset(roots), h)
    violation = _violation(S)
    if violation is not None:
        (a, b), (c, d), side = violation
        raise ValueError(
            f"{side} not closed under root addition: "
            f"({a},{b}) + ({c},{d}) = ({a},{d}) is selected by h but missing"
        )
    return S


@lru_cache(maxsize=None)
def weyl_subset_of(w: Perm, h: Hessenberg) -> WeylSubset:
    """The Weyl-type subset N(w) & (roots selected by h) of a permutation w."""
    validate_perm(w)
    selected = hessenberg_roots(h)
    if len(w) != len(h):
        raise ValueError(f"size mismatch: {len(w)} vs {len(h)}")
    S = WeylSubset(roots=inversion_set(w) & selected, h=h)
    if _violation(S) is not None:
        raise InvariantError(f"N({list(w)}) & roots of h = {list(h)} is not of Weyl type")
    return S


def _advance(counts: dict[tuple[int, ...], int], p: int,
             keep: Sequence[bool]) -> dict[tuple[int, ...], int]:
    """The gap profiles after a vertex is placed after p live vertices, from
    those before it (counts: profile -> number of topological orders).  keep
    tells, for each live vertex in order with the new one among them, whether
    it stays live; each that retires merges its two gaps and itself."""
    advanced: dict[tuple[int, ...], int] = {}
    for gaps, count in counts.items():
        for x in range(gaps[p] + 1):
            split = gaps[:p] + (x, gaps[p] - x) + gaps[p + 1:]
            merged = [split[0]]
            for kept, gap in zip(keep, split[1:]):
                if kept:
                    merged.append(gap)
                else:
                    merged[-1] += 1 + gap
            key = tuple(merged)
            advanced[key] = advanced.get(key, 0) + count
    return advanced


def _grow(h: Hessenberg) -> list[tuple[tuple[Root, ...], Perm, tuple[int, ...], int]]:
    """One (image, order, inside, size) per acyclic orientation, sorted by
    image.

    order is a topological order w^{-1}, grown vertex by vertex: c enters
    first or just after one of its earlier neighbours [a(c), c - 1], a clique
    the order ranks totally, and S gains (j, c) for the neighbours after c,
    so bit c joins inside[j] for them.  No choice is a dead end or a repeat:
    prod(1 + a_c) orders.  Bit c of inside[a] marks (a, c) in N(w) & R, and
    image lists those roots sorted.  The same insertion splits and merges
    each order's gap profiles (the third lemma of the module docstring), and
    size is its class size.  Each grown subset is re-checked for Weyl type."""
    n = len(h)
    selected = _selected_masks(h)
    first = [bisect_left(h, v) + 1 for v in range(n + 2)]  # a(v); a(n + 1) = n + 1
    level: list = [((), (0,) * (n + 1), {(0,): 1})]
    for c in range(1, n + 1):
        bit, stay = 1 << c, first[c + 1]
        grown = []
        for order, inside, counts in level:
            spots, live = [0], []
            for i, j in enumerate(order):
                if j >= first[c]:
                    spots.append(i + 1)
                    live.append(j)
            marked = list(inside)
            for j in live:
                marked[j] |= bit
            for p, spot in enumerate(spots):
                if p:
                    marked[live[p - 1]] ^= bit
                if c == n:
                    carried = sum(count * (gaps[p] + 1) for gaps, count in counts.items())
                else:
                    carried = _advance(counts, p, [v >= stay for v in live[:p] + [c] + live[p:]])
                grown.append((order[:spot] + (c,) + order[spot:], tuple(marked), carried))
        level = grown
    roots = sorted(hessenberg_roots(h))
    records = []
    for order, inside, size in level:
        image = tuple([r for r in roots if inside[r[0]] >> r[1] & 1])
        if _closure_violation(inside, selected) is not None:
            raise InvariantError(f"grown {list(image)} for h = {list(h)} is not of Weyl type")
        records.append((image, order, inside, size))
    records.sort(key=itemgetter(0))
    return records


@lru_cache(maxsize=None)
def enumerate_weyl_subsets(h: Hessenberg) -> tuple[WeylSubset, ...]:
    """All Weyl-type subsets for h, ordered by their sorted root lists: the
    subsets of list_classes(h), so each has passed that listing's checks."""
    return tuple(WeylSubset(roots=frozenset(image), h=h) for image, *_ in list_classes(h))


def complement(S: WeylSubset) -> WeylSubset:
    """The complementary Weyl-type subset inside the selected roots.  A
    cyclic S is not checked: its complement reverses every arc, so it is
    cyclic too."""
    return WeylSubset(roots=hessenberg_roots(S.h) - S.roots, h=S.h)


@lru_cache(maxsize=None)
def max_element(S: WeylSubset) -> Perm:
    """The weak-order maximum of class_of(S), by source peeling.

    The k-th vertex peeled from the orientation of S, always the largest
    source of what is left, takes the value k.  An acyclic orientation
    always has a source, so the peel completes.  A directed cycle raises
    ValueError.
    """
    order = _peel(S.before, S.after)
    if len(order) != S.n:
        raise ValueError(f"the orientation of S = {sorted(S.roots)} has a directed cycle")
    return inverse(tuple(order))


def _checked_maximum(order: Sequence[int], inside: Sequence[int], selected: list[int]) -> Perm:
    """w = inverse(order), raising unless it is the class maximum of the
    subset with out-masks inside (bit c of inside[a] marks (a, c); selected
    is _selected_masks(h)).  Its roots must be those of inside: (a, c) is a
    root of w when c comes before a in order.  And it must pass the
    maximality criterion: whenever values k and k + 1 sit at positions
    a < b, the swap that would raise w in weak order must change its roots,
    so (a, b) must be selected.  A class minimum is w0 times the maximum of
    the complement (second lemma), so this one criterion checks both."""
    w = inverse(order)
    placed = 0
    for v in order:
        if selected[v] & placed != inside[v]:
            raise InvariantError(f"class maximum {list(w)} does not have the roots of its subset")
        placed |= 1 << v
    for a, b in zip(order, order[1:]):
        if a < b and not selected[a] >> b & 1:
            raise InvariantError(f"class maximum {list(w)} fails the maximality criterion")
    return w


def min_element(S: WeylSubset) -> Perm:
    """The weak-order minimum of class_of(S), w0 max_element(R \\ S): R \\ S
    reverses every arc of S, so the peel with S's masks swapped is the order
    of that maximum, checked against the roots of R \\ S; read backwards, it
    is the order of the minimum; R \\ S has out-masks S.after & selected.
    A directed cycle raises ValueError."""
    order = _peel(S.after, S.before)
    if len(order) != S.n:
        raise ValueError(f"the orientation of S = {sorted(S.roots)} has a directed cycle")
    selected = _selected_masks(S.h)
    _checked_maximum(order, list(map(and_, S.after, selected)), selected)
    return inverse(order[::-1])


def _ideal_counts(S: WeylSubset) -> list[dict[int, int]]:
    """For each size k, the order ideals with k vertices of the orientation
    of S, each with its number of topological orders; size k + 1 adds one
    source of what is left.  A directed cycle raises ValueError."""
    before, after = S.before, S.after
    ideals = [{0: 1}]
    ready = {0: _ready(before)}  # each ideal's sources, as a mask
    for _ in range(S.n):
        grown: dict[int, int] = {}
        for ideal, count in ideals[-1].items():
            for v in mask_members(ready[ideal]):
                larger = ideal | 1 << v
                if larger not in grown:
                    ready[larger] = ready[ideal] ^ 1 << v | _ready(before, larger, after[v])
                grown[larger] = grown.get(larger, 0) + count
        ideals.append(grown)
    if not ideals[-1]:
        raise ValueError(f"the orientation of S = {sorted(S.roots)} has a directed cycle")
    return ideals


def class_size(S: WeylSubset) -> int:
    """len(class_of(S)), counted on the order ideals without listing them.

    >>> class_size(WeylSubset(frozenset(), (1, 2, 3, 4)))
    24
    """
    return sum(_ideal_counts(S)[-1].values())


def list_classes(h: Hessenberg) -> list[tuple[tuple[Root, ...], int, Perm, Perm]]:
    """(sorted roots of S, class_size(S), max_element(S), min_element(S)) for
    each Weyl-type subset S of h, sorted by its roots, read off
    the growth (see the module docstring for the three lemmas): each maximum
    is its grown order inverted, each minimum w0 times the maximum of the
    complement, found by its masks, and each size is the growth's count.
    Each grown order is checked once, as a maximum against its own roots,
    and none is peeled; complementary classes must have equal sizes, and
    the sizes must add up to n!."""
    h = validate_hessenberg(h)
    grown = _grow(h)
    selected = _selected_masks(h)
    pair = {inside: k for k, (_, _, inside, _) in enumerate(grown)}
    listing: list[tuple[tuple[Root, ...], int, Perm, Perm]] = []
    for image, order, inside, size in grown:
        w = _checked_maximum(order, inside, selected)
        j = pair.get(tuple(map(xor, selected, inside)))
        if j is None:
            raise InvariantError(f"the complement of {list(image)} for h = {list(h)} was not grown")
        _, paired, _, paired_size = grown[j]
        if paired_size != size:
            raise InvariantError(f"the classes of {list(image)} and its complement for "
                                 f"h = {list(h)} have sizes {size} and {paired_size}")
        # w0 max_element(R \ S); that maximum is checked in its own record
        listing.append((image, size, w, inverse(paired[::-1])))
    total = sum(size for _, size, _, _ in listing)
    if total != factorial(len(h)):
        raise InvariantError(f"the class sizes for h = {list(h)} add up to {total}, "
                             f"not {len(h)}! = {factorial(len(h))}")
    return listing


@lru_cache(maxsize=None)
def class_of(S: WeylSubset) -> frozenset[Perm]:
    """All w with N(w) & (selected roots) = S, the weak-order interval from
    min_element(S) to max_element(S), grown on the order ideals of S."""
    return frozenset(map(inverse, prefix_listing(_ideal_counts(S)[1:])))


def induced_subset(S: WeylSubset, k: int) -> WeylSubset:
    """Restrict S to the vertices other than k, relabeled 1..n-1.

    The result is the Weyl-type subset of delete_vertex(S.h, k) whose
    orientation is the restriction of the orientation of S; meaningful for
    the class induction when k is a source, but defined for any vertex.
    A cyclic S is not checked: it raises ValueError only when a directed
    cycle survives the deletion.
    """
    if not 1 <= k <= S.n:
        raise ValueError(f"vertex out of range: {k}")
    roots = frozenset(tuple(v - 1 if v > k else v for v in r) for r in S.roots if k not in r)
    out = WeylSubset(roots=roots, h=delete_vertex(S.h, k))
    if _violation(out) is not None:
        if not is_acyclic(S):
            raise ValueError(f"the orientation of S = {sorted(S.roots)} has a directed cycle")
        raise InvariantError(f"S with vertex {k} deleted is not of Weyl type")
    return out
