"""Permutation basics: inversion sets, special elements, group operations."""

import importlib
import itertools
import json
import math
import pkgutil
import re

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

import hesscomb
from hesscomb.hessenberg import hessenberg_length
from hesscomb.orders import bruhat_family, bruhat_interval, bruhat_leq
from hesscomb.perms import (
    all_perms,
    apply_to_root,
    compose,
    front_cycle,
    identity,
    inverse,
    inversion_bits,
    inversion_set,
    is_positive,
    length,
    longest_element,
    positive_roots,
    prefix_bits,
    prefix_listing,
    prefix_listing_json,
    root_columns,
    row_members,
    validate_perm,
)


def scan_inversions(w):
    # direct scan of all pairs i < j, the defining formula
    n = len(w)
    return {
        (i, j)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        if w[i - 1] > w[j - 1]
    }


@st.composite
def same_size_perms(draw, count=2, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    base = tuple(range(1, n + 1))
    return tuple(tuple(draw(st.permutations(base))) for _ in range(count))


class TestInversionSet:
    def test_identity_has_none(self):
        assert inversion_set(identity(4)) == frozenset()

    def test_single_descent_at_end(self):
        assert inversion_set((2, 3, 4, 1)) == {(3, 4), (2, 4), (1, 4)}

    def test_matches_direct_scan(self):
        assert inversion_set((2, 3, 1, 4)) == {(1, 3), (2, 3)}
        for w in all_perms(4):
            assert inversion_set(w) == scan_inversions(w)

    def test_membership_is_sign_flip(self):
        # r is an inversion of w exactly when w sends r to a negative root
        for n in (2, 3, 4):
            for w in all_perms(n):
                inv = inversion_set(w)
                for r in positive_roots(n):
                    assert (r in inv) == (not is_positive(apply_to_root(w, r)))


class TestSpecialElements:
    def test_longest_element(self):
        assert longest_element(4) == (4, 3, 2, 1)
        assert longest_element(1) == (1,)
        assert length(longest_element(4)) == math.comb(4, 2)

    def test_longest_element_rejects_bad_n(self):
        with pytest.raises(ValueError):
            longest_element(0)

    def test_identity_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            identity(0)

    def test_front_cycle(self):
        assert front_cycle(4, 3) == (2, 3, 1, 4)
        assert front_cycle(4, 1) == identity(4)
        assert front_cycle(5, 5) == (2, 3, 4, 5, 1)
        for k in range(1, 6):
            assert length(front_cycle(5, k)) == k - 1

    def test_front_cycle_rejects_bad_k(self):
        with pytest.raises(ValueError):
            front_cycle(4, 5)
        with pytest.raises(ValueError):
            front_cycle(4, 0)

    def test_front_cycle_is_product_of_adjacent_transpositions(self):
        # the adjacent transpositions swapping 1, 2 and then 2, 3
        w = compose((2, 1, 3, 4), (1, 3, 2, 4))
        assert w == (2, 3, 1, 4) == front_cycle(4, 3)


class TestGroupOperations:
    def test_compose_with_identity(self):
        for w in all_perms(3):
            assert compose(w, identity(3)) == w == compose(identity(3), w)

    def test_compose_size_mismatch(self):
        with pytest.raises(ValueError):
            compose((1, 2), (1, 2, 3))

    def test_validate_perm(self):
        assert validate_perm([2, 3, 1, 4]) == (2, 3, 1, 4)
        with pytest.raises(ValueError):
            validate_perm([1, 1, 2])
        with pytest.raises(ValueError):
            validate_perm([0, 1, 2])

    def test_validate_perm_rejects_empty(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            validate_perm([])

    # inverse, inversion_set, length, compose and weak_left_leq run in the
    # sweeps' inner loops and document that they do not check w
    @pytest.mark.parametrize("call, args, message", [
        (bruhat_leq, ((1, 1), (2, 2)), "not a permutation of 1..2: [1, 1]"),
        (bruhat_leq, ((1, 2), (2, 2)), "not a permutation of 1..2: [2, 2]"),
        (bruhat_leq, ((2, 3, 1), (0, 1, 2)), "not a permutation of 1..3: [0, 1, 2]"),
        (hessenberg_length, ((1, 1), (2, 2)), "not a permutation of 1..2: [1, 1]"),
        (hessenberg_length, ((2, 3), (2, 2)), "not a permutation of 1..2: [2, 3]"),
    ])
    def test_non_permutations_are_rejected(self, call, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(*args)

    @given(same_size_perms(count=1))
    def test_inverse_involution(self, perms):
        (w,) = perms
        assert inverse(inverse(w)) == w
        assert compose(w, inverse(w)) == identity(len(w))
        assert compose(inverse(w), w) == identity(len(w))

    @given(same_size_perms(count=3))
    def test_compose_associative(self, perms):
        a, b, c = perms
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(same_size_perms(count=2))
    def test_inverse_antihomomorphism(self, perms):
        a, b = perms
        assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))


class TestEnumeration:
    def test_counts(self):
        perms = all_perms(4)
        assert len(perms) == 24
        assert len(set(perms)) == 24

    def test_lexicographic_order(self):
        perms = list(all_perms(4))
        assert perms == sorted(perms)
        assert perms[0] == identity(4)
        assert perms[-1] == longest_element(4)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            all_perms(0)


class TestLength:
    def test_counts_the_inversion_set(self):
        # length counts on a value mask and never reads the inversion set
        for n in range(1, 7):
            for w in all_perms(n):
                assert length(w) == len(inversion_set(w))


class TestComplementLaw:
    def test_longest_element_complements_inversions(self):
        for n in (1, 2, 3, 4):
            w0 = longest_element(n)
            pos = positive_roots(n)
            for w in all_perms(n):
                flip = compose(w0, w)
                assert length(w) + length(flip) == length(w0)
                assert inversion_set(flip) == pos - inversion_set(w)


def _mask(values):
    return sum(1 << v for v in values)


@st.composite
def prefix_families(draw, max_n=6):
    """A family of allowed k-sets for each k: random k-sets, most of them dead
    ends, and the prefix sets of one permutation, missing at one level or none."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    path = draw(st.permutations(range(1, n + 1)))
    missing = draw(st.integers(min_value=0, max_value=n))
    allowed = []
    for k in range(1, n + 1):
        masks = [_mask(t) for t in itertools.combinations(range(1, n + 1), k)]
        family = set(draw(st.lists(st.sampled_from(masks), max_size=len(masks))))
        if k != missing:
            family.add(_mask(path[:k]))
        allowed.append(family)
    return allowed


@seed(6)
@given(prefix_families())
def test_prefix_listing_set_matches_filter(allowed):
    n = len(allowed)
    expected = [u for u in itertools.permutations(range(1, n + 1))
                if all(_mask(u[:k]) in allowed[k - 1] for k in range(1, n + 1))]
    assert frozenset(prefix_listing(allowed)) == set(expected)


@seed(19)
@given(prefix_families())
def test_prefix_listing_is_the_set_in_lexicographic_order(allowed):
    # the same families as above: dead ends, a missing level, and n = 1
    listing = prefix_listing(allowed)
    assert listing == sorted(frozenset(listing))
    n = len(allowed)
    assert listing == [u for u in itertools.permutations(range(1, n + 1))
                       if all(_mask(u[:k]) in allowed[k - 1] for k in range(1, n + 1))]


@seed(20)
@given(prefix_families())
def test_prefix_listing_json_is_the_encoded_listing(allowed):
    # the same families: dead-end masks, and empty listings printed as "[]"
    assert prefix_listing_json(allowed) == json.dumps(prefix_listing(allowed))


def test_prefix_listing_json_pins():
    assert prefix_listing_json([{0b10}]) == "[[1]]"
    assert prefix_listing_json([{0b10}, set()]) == "[]"


def _row(perms, chosen):
    # the row of a set of permutations of one rank, by a direct index scan
    return sum(1 << i for i, u in enumerate(perms) if u in chosen)


@seed(31)
@given(prefix_families())
def test_prefix_bits_is_the_listing_as_a_row(allowed):
    # the families of the listing tests: dead ends, a missing level, and n = 1
    listing = prefix_listing(allowed)
    bits = prefix_bits(allowed)
    assert bits == _row(all_perms(len(allowed)), set(listing))
    assert [all_perms(len(allowed))[i] for i in row_members(bits)] == listing


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_prefix_bits_reads_every_upper_bruhat_interval(n):
    perms = all_perms(n)
    w0 = longest_element(n)
    for w in perms:
        assert prefix_bits(bruhat_family(w, w0)) == _row(perms, bruhat_interval(w, w0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_root_columns_are_the_definition(n):
    perms = all_perms(n)
    columns = root_columns(n)
    assert set(columns) == positive_roots(n)
    for x, w in enumerate(perms):
        assert {r for r, column in columns.items() if column >> x & 1} == scan_inversions(w)
    pos = sorted(positive_roots(n))
    for inside, outside in [((), ()), (pos[:1], pos[-1:]), (pos[::2], pos[1::2])]:
        assert inversion_bits(n, inside, outside) == _row(perms, {
            w for w in perms
            if set(inside) <= scan_inversions(w) and not set(outside) & scan_inversions(w)})


def test_row_members_pins():
    assert row_members(0) == []
    assert row_members(1) == [0]
    assert row_members(1 << 5039 | 0b101) == [0, 2, 5039]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_w0_times_a_permutation_mirrors_its_index(n):
    # the weak-order-reversal check reverses rows by this identity
    perms = all_perms(n)
    w0 = longest_element(n)
    last = math.factorial(n) - 1
    assert all(perms[last - i] == compose(w0, u) for i, u in enumerate(perms))


def test_prefix_bits_rejects_rank_zero():
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        prefix_bits([])


@pytest.mark.parametrize("grow", [prefix_listing, prefix_listing_json])
def test_prefix_listing_rejects_rank_zero(grow):
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        grow([])


def test_only_sweep_modules_bind_all_perms():
    # a query module that starts enumerating S_n fails here at once, not
    # only in a slow no_enumeration test
    names = ["hesscomb"] + [f"hesscomb.{m.name}" for m in pkgutil.iter_modules(hesscomb.__path__)]
    binding = {name.rpartition(".")[2] for name in names
               if hasattr(importlib.import_module(name), "all_perms")}
    assert binding == {"hesscomb", "perms", "oracles", "verify"}
