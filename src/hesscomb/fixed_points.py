"""
Torus-fixed point sets of (opposite) Hessenberg Schubert varieties.

Two independent routes are provided and must agree.  Each route writes its
set as a family: for every k, the allowed k-sets of first values (bit v for
value v), grown into permutations by perms.prefix_listing with no scan of
all n! permutations.  The direct route reads its family off reachability
data: u is a fixed point when its first k values form the w-image of a
reachable k-set, for every k.  Those sets are found for every k in one
pass per Weyl-type subset S, reach.reachable_masks, whose cached masks the
whole class of S shares.  The interval route produces a (possibly
translated) Bruhat interval determined by the extremes of the Weyl-type
class; its family is the sorted-prefix family of that interval.  Each
route moves its base family through w or the translation by
perms.image_family.  Neither base family is built from, or reads the
module of, the other.  Since prefix_listing is a function of its family,
equal families grow equal sets; the agreement of the two routes on every
input is the central property the verification suite sweeps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .hessenberg import Hessenberg, hessenberg_length, total_dimension
from .orders import bruhat_family, bruhat_interval
from .perms import (
    Perm,
    compose,
    identity,
    image_family,
    inverse,
    length,
    longest_element,
    prefix_listing,
)
from .reach import reachable_masks
from .weyl import InvariantError, WeylSubset, max_element, min_element, weyl_subset_of


def reachability_family(w: Perm, h: Hessenberg) -> list[set[int]]:
    """The allowed prefix sets of the reachability route: for each k < n the
    w-images of the reachable k-sets, and for k = n the full set."""
    return image_family(reachable_masks(weyl_subset_of(w, h))[1:], w)


@lru_cache(maxsize=4096)
def fixed_points_by_reachability(w: Perm, h: Hessenberg) -> frozenset[Perm]:
    """Fixed points of the closed opposite cell of w, from reachability.

    A permutation u belongs exactly when, for every k < n, the set of its
    first k values is the w-image of a reachable k-set.
    """
    return frozenset(prefix_listing(reachability_family(w, h)))


def fixed_points_by_interval(S: WeylSubset) -> frozenset[Perm]:
    """Fixed points for the maximum of the class of S: the Bruhat interval
    from max_element(S) up to the longest element."""
    return bruhat_interval(max_element(S), longest_element(S.n))


def _translation(v: Perm, h: Hessenberg) -> tuple[Perm, Perm, Perm]:
    """The translation u = v m^{-1} and the interval [m, w0] it moves, with m
    the maximum of the class of v.

    The length identity len(m) = len(v) + len(u) holds because v lies
    weakly below m; its failure would signal an internal inconsistency.
    """
    top = longest_element(len(v))
    m = max_element(weyl_subset_of(v, h))
    u = compose(v, inverse(m))
    if length(m) != length(v) + length(u):
        raise InvariantError(
            f"length identity fails: len(m) != len(v) + len(u) for v = {list(v)}, m = {list(m)}"
        )
    return u, m, top


def interval_family(v: Perm, h: Hessenberg) -> list[set[int]]:
    """The allowed prefix sets of the interval route: those of the translate
    u [m, w0]."""
    u, m, top = _translation(v, h)
    return image_family(bruhat_family(m, top), u)


def fixed_points_by_translation(v: Perm, h: Hessenberg) -> frozenset[Perm]:
    """Fixed points for an arbitrary class member v, by translation: u
    applied to the Bruhat interval [m, w0], with m the maximum of the class
    of v and u = v m^{-1}.  It is the direct witness of the cell-translation
    check; no command prints through it."""
    u, m, top = _translation(v, h)
    at = ((0,) + u).__getitem__  # u on 1-based values
    return frozenset(tuple(map(at, x)) for x in bruhat_interval(m, top))


def schubert_fixed_points(S: WeylSubset) -> frozenset[Perm]:
    """Fixed points of the (non-opposite) Hessenberg Schubert variety of the
    class minimum: the Bruhat interval from the identity up to
    min_element(S)."""
    return bruhat_interval(identity(S.n), min_element(S))


def dimension_report(w: Perm, h: Hessenberg) -> dict[str, int]:
    """Cell dimensions as a JSON-ready record.

    total_dim is the dimension of the Hessenberg variety, cell_dim the
    dimension of the Schubert-side cell of w, opp_cell_dim of the opposite
    one; the two cell dimensions sum to total_dim.
    """
    total = total_dimension(h)
    cell = hessenberg_length(w, h)
    return {"total_dim": total, "cell_dim": cell, "opp_cell_dim": total - cell}


def reducibility_witness(S: WeylSubset) -> Optional[Perm]:
    """The lexicographically smallest permutation strictly above the class
    maximum in Bruhat order with the same restricted inversion count, or
    None if there is none.

    A witness certifies that the closed opposite cell of the class maximum
    meets the Hessenberg variety in more than one top-dimensional piece.
    Absence of a witness certifies nothing.
    """
    m = max_element(S)
    target = hessenberg_length(m, S.h)
    above = bruhat_interval(m, longest_element(S.n)) - {m}
    return min((u for u in above if hessenberg_length(u, S.h) == target), default=None)
