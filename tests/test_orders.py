"""Bruhat order, weak left order, k-tuple order, and interval operations."""

import itertools
import json
import random
import subprocess
import sys
import textwrap

import pytest

from hesscomb.oracles import bruhat_leq_by_covers, weak_interval
from hesscomb.orders import (
    _gale_table,
    bruhat_family,
    bruhat_interval,
    bruhat_leq,
    ktuple_leq,
    sort_action,
    weak_left_leq,
)
from hesscomb.perms import (
    all_perms,
    compose,
    identity,
    image_family,
    inverse,
    inversion_set,
    longest_element,
    prefix_listing,
)


class TestSortAction:
    def test_full_prefix_is_sorted_values(self):
        assert sort_action((2, 3, 1, 4), (1, 2, 3)) == (1, 2, 3)

    def test_partial(self):
        assert sort_action((2, 3, 1, 4), (1, 2)) == (2, 3)

    def test_identity_fixes_tuples(self):
        assert sort_action(identity(4), (2, 4)) == (2, 4)


class TestKTupleLeq:
    def test_reflexive(self):
        assert ktuple_leq((1, 2, 3), (1, 2, 3))

    def test_componentwise(self):
        assert ktuple_leq((1, 2), (2, 3))
        assert not ktuple_leq((1, 4), (2, 3))

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            ktuple_leq((1, 2), (1, 2, 3))


class TestBruhatLeq:
    def test_longest_element_is_maximum(self):
        w0 = longest_element(4)
        assert all(bruhat_leq(w, w0) for w in all_perms(4))

    def test_known_comparison(self):
        assert bruhat_leq((2, 3, 1, 4), (2, 3, 4, 1))

    def test_agrees_with_cover_oracle(self):
        for w in all_perms(4):
            for v in all_perms(4):
                assert bruhat_leq(w, v) == bruhat_leq_by_covers(w, v)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_partial_order_axioms(self, n):
        perms = all_perms(n)
        index = {p: i for i, p in enumerate(perms)}
        up = []
        for w in perms:
            bits = 0
            for v in perms:
                if bruhat_leq(w, v):
                    bits |= 1 << index[v]
            up.append(bits)
        for i in range(len(perms)):
            assert up[i] >> i & 1  # reflexive
            for j in range(len(perms)):
                if up[i] >> j & 1:
                    if i != j:
                        assert not up[j] >> i & 1  # antisymmetric
                    assert not up[j] & ~up[i]  # transitive


class TestWeakLeftLeq:
    def test_identity_is_minimum(self):
        e = identity(4)
        assert all(weak_left_leq(e, v) for v in all_perms(4))

    def test_containment_example(self):
        assert inversion_set((2, 3, 1, 4)) == {(1, 3), (2, 3)}
        assert inversion_set((3, 2, 1, 4)) == {(1, 2), (1, 3), (2, 3)}
        assert weak_left_leq((2, 3, 1, 4), (3, 2, 1, 4))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch: 2 vs 3"):
            weak_left_leq((1, 2), (1, 2, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_implies_bruhat(self, n):
        for u in all_perms(n):
            for v in all_perms(n):
                if weak_left_leq(u, v):
                    assert bruhat_leq(u, v)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_longest_element_reverses_weak_order(self, n):
        w0 = longest_element(n)
        for u in all_perms(n):
            for v in all_perms(n):
                assert weak_left_leq(u, v) == weak_left_leq(
                    compose(w0, v), compose(w0, u)
                )


class TestIntervals:
    def test_degenerate(self):
        w0 = longest_element(4)
        assert bruhat_interval(w0, w0) == {w0}

    def test_full(self):
        assert bruhat_interval(identity(4), longest_element(4)) == set(all_perms(4))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_size_agrees_with_cover_oracle(self, n):
        # the cover closure does not use the sorted-prefix criterion that
        # bruhat_interval grows its members by
        if n == 4:
            lo, hi = (2, 3, 1, 4), (4, 3, 2, 1)
            got = bruhat_interval(lo, hi)
            assert len(got) == 12
            assert got == {v for v in all_perms(4) if bruhat_leq_by_covers(lo, v)}
        perms = all_perms(n)
        if n <= 4:
            ends = [(lo, hi) for lo in perms for hi in perms]
        else:
            ends = [(m, longest_element(n)) for m in perms] + [(identity(n), m) for m in perms]
        for lo, hi in ends:
            assert bruhat_interval(lo, hi) == {
                v for v in perms if bruhat_leq_by_covers(lo, v) and bruhat_leq_by_covers(v, hi)
            }

    def test_incomparable_pair_gives_empty(self):
        assert bruhat_interval((2, 1, 3), (1, 3, 2)) == frozenset()

    def test_size_mismatch(self):
        for lo, hi in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2))):
            with pytest.raises(ValueError, match="size mismatch"):
                bruhat_interval(lo, hi)

    def test_weak_interval(self):
        full = weak_interval(identity(3), longest_element(3))
        assert full == set(all_perms(3))
        assert weak_interval((2, 1, 3), (1, 3, 2)) == frozenset()


def family_by_filter(lo, hi, shift):
    # every k-set, kept when its sorted values lie between the sorted first
    # k values of lo and of hi, then written through shift as a mask
    n = len(lo)
    return [
        {sum(1 << shift[x - 1] for x in c)
         for c in itertools.combinations(range(1, n + 1), k)
         if all(a <= x <= b for a, x, b in zip(sorted(lo[:k]), c, sorted(hi[:k])))}
        for k in range(1, n + 1)
    ]


class TestBruhatFamily:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_levels_match_the_filter(self, n):
        perms = all_perms(n)
        if n <= 4:
            ends = [(lo, hi) for lo in perms for hi in perms]
        else:
            ends = [(m, longest_element(n)) for m in perms] + [(identity(n), m) for m in perms]
        rng = random.Random(n)
        for lo, hi in ends:
            shift = rng.choice(perms)
            assert bruhat_family(lo, hi) == family_by_filter(lo, hi, identity(n))
            assert image_family(bruhat_family(lo, hi), shift) == family_by_filter(lo, hi, shift)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pull_back_through_m_gives_the_j_sets(self, n):
        # level k - 1 of [m, w0] pulled back through m holds the k-sets T with
        # sorted m(T) at or above sorted m({1, ..., k}): the J-sets that
        # verify's j-set-formula reads, here filtered from every k-set
        w0 = longest_element(n)
        for m in all_perms(n):
            pulled = image_family(bruhat_family(m, w0), inverse(m))
            for k in range(1, n + 1):
                base = sort_action(m, tuple(range(1, k + 1)))
                assert pulled[k - 1] == {
                    sum(1 << x for x in t)
                    for t in itertools.combinations(range(1, n + 1), k)
                    if ktuple_leq(base, sort_action(m, t))
                }

    def test_incomparable_prefixes_give_an_empty_level(self):
        # {2} is not below {1}, while {1, 2} lies below {1, 3}
        family = bruhat_family((2, 1, 3), (1, 3, 2))
        assert family == [set(), {0b110, 0b1010}, {0b1110}]
        # through the shift 1 -> 3, 2 -> 1, 3 -> 2
        assert image_family(family, (3, 1, 2)) == [set(), {0b1010, 0b1100}, {0b1110}]

    def test_small_family_stays_small_at_large_rank(self):
        # [e, s1] at rank 20 has 21 prefix sets; each table follows its
        # bounds' members, where one over every mask of the top bit's width
        # would take hundreds of MB
        script = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
            from hesscomb.orders import bruhat_family
            from hesscomb.perms import identity
            family = bruhat_family(identity(20), (2, 1) + tuple(range(3, 21)))
            print(sum(map(len, family)), sorted(family[0]))
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split(" ", 1) == ["21", "[2, 4]\n"]

    @pytest.mark.parametrize("args, message", [
        (((1, 2), (2, 1, 3)), "size mismatch: 2 vs 3"),
        (((1, 2, 3), (3, 2)), "size mismatch: 3 vs 2"),
        (((1, 1), (2, 1)), r"not a permutation of 1..2: \[1, 1\]"),
        (((1, 2), (2, 3)), r"not a permutation of 1..2: \[2, 3\]"),
        (((1, 2, 3), (3, 3, 1)), r"not a permutation of 1..3: \[3, 3, 1\]"),
    ])
    def test_malformed_endpoints_are_rejected_before_any_table(self, args, message):
        _gale_table.cache_clear()
        with pytest.raises(ValueError, match=message):
            bruhat_family(*args)
        assert _gale_table.cache_info().currsize == 0

    def test_interval_rejects_malformed_endpoints(self):
        for lo, hi in (((1, 1), (2, 2)), ((1, 2), (0, 1))):
            with pytest.raises(ValueError, match="not a permutation of 1..2"):
                bruhat_interval(lo, hi)


class Untouched:
    """A family level that fails the test when it is read."""

    def __iter__(self):
        raise AssertionError("a level was read")


class TestImageFamily:
    @pytest.mark.parametrize("lo, hi, shift, message", [
        ((1, 2), (2, 1), (1, 2, 3), "size mismatch: 2 vs 3"),
        ((1, 2, 3), (3, 2, 1), (1, 2), "size mismatch: 3 vs 2"),
        ((1, 2, 3), (3, 2, 1), (1, 1, 3), r"not a permutation of 1..3: \[1, 1, 3\]"),
    ])
    def test_malformed_permutations_are_rejected_before_any_level(self, lo, hi, shift, message):
        with pytest.raises(ValueError, match=message):
            image_family(bruhat_family(lo, hi), shift)
        with pytest.raises(ValueError, match=message):
            image_family([Untouched()] * len(lo), shift)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_identity_composition_and_listing(self, n):
        perms = all_perms(n)
        rng = random.Random(n)
        for _ in range(10):
            m, a, b = rng.choice(perms), rng.choice(perms), rng.choice(perms)
            for family in (bruhat_family(identity(n), m), bruhat_family(m, longest_element(n))):
                assert image_family(family, identity(n)) == family
                assert image_family(image_family(family, a), b) == image_family(
                    family, compose(b, a))
                assert prefix_listing(image_family(family, a)) == sorted(
                    compose(a, x) for x in prefix_listing(family))
