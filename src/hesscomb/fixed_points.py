"""
Torus-fixed point sets of (opposite) Hessenberg Schubert varieties.

Two independent routes are provided and must agree.  The direct one reads
the fixed points off reachability data: u is one when its first k values
form the w-image of a reachable k-set, for every k.  Those sets are cached
per (S, k) in reach.reachable_sets and shared by the whole class of S.  The
interval one produces a (possibly translated) Bruhat interval determined by
the extremes of the Weyl-type class.  Both grow their sets through
perms.with_prefix_sets, with no scan of all n! permutations.  Their
agreement on every input is the central property the verification suite sweeps.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .hessenberg import Hessenberg, hessenberg_length, total_dimension
from .orders import bruhat_interval
from .perms import Perm, compose, identity, inverse, length, longest_element, with_prefix_sets
from .reach import reachable_sets
from .weyl import InvariantError, WeylSubset, max_element, min_element, weyl_subset_of


@lru_cache(maxsize=4096)
def fixed_points_by_reachability(w: Perm, h: Hessenberg) -> frozenset[Perm]:
    """Fixed points of the closed opposite cell of w, from reachability.

    A permutation u belongs exactly when, for every k < n, the set of its
    first k values is the w-image of a reachable k-set.
    """
    n = len(w)
    S = weyl_subset_of(w, h)
    # bit v stands for the value v; all n values are the image of {1, ..., n}
    images = [
        {sum(1 << w[t - 1] for t in T) for T in reachable_sets(S, k)}
        for k in range(1, n)
    ] + [{sum(1 << v for v in w)}]
    return with_prefix_sets(images)


def fixed_points_by_interval(S: WeylSubset) -> frozenset[Perm]:
    """Fixed points for the maximum of the class of S: the Bruhat interval
    from max_element(S) up to the longest element."""
    return bruhat_interval(max_element(S), longest_element(S.n))


def fixed_points_by_translation(v: Perm, h: Hessenberg) -> frozenset[Perm]:
    """Fixed points for an arbitrary class member v, by translation.

    With m the maximum of the class of v and u = v m^{-1}, the fixed point
    set is u applied to the Bruhat interval [m, w0].  The length identity
    len(m) = len(v) + len(u) holds because v lies weakly below m; its
    failure would signal an internal inconsistency.
    """
    S = weyl_subset_of(v, h)
    m = max_element(S)
    u = compose(v, inverse(m))
    if length(m) != length(v) + length(u):
        raise InvariantError(
            f"length identity fails: len(m) != len(v) + len(u) for v = {list(v)}, m = {list(m)}"
        )
    top = longest_element(len(v))
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
