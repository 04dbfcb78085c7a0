"""The named property checks and their sweep driver."""

import functools
import importlib
import json
import math
import pkgutil
import random
from pathlib import Path

import pytest

import hesscomb
from hesscomb import verify
from hesscomb.cli import main
from hesscomb.fixed_points import fixed_points_by_reachability, interval_family
from hesscomb.hessenberg import enumerate_hessenberg, hessenberg_roots
from hesscomb.oracles import _cover_closure
from hesscomb.orders import _gale_table, bruhat_interval, bruhat_leq
from hesscomb.perms import all_perms, identity, length, longest_element, mask_members
from hesscomb.reach import reachable_masks, sources
from hesscomb.verify import GLOBAL_CHECKS, MAX_N, PER_H_CHECKS, lemma_names, run_suite
from hesscomb.weyl import max_element


def test_full_suite_passes_at_small_ranks():
    for n in (1, 2, 3):
        summary, discrepancies = run_suite(n)
        assert summary["ok"]
        assert summary["failures"] == 0
        assert discrepancies == []
        assert set(summary["lemmas"]) == set(lemma_names())


def test_hessenberg_counts_reported():
    summary, _ = run_suite(3)
    assert summary["hessenberg_count"] == 5


GOLDEN_N5 = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "verify-n5.json"


class _CountedClear:
    """Stands in for a cache in verify.UNIT_CACHES and adds up the misses
    that each end-of-unit clear would otherwise reset."""

    def __init__(self, cache):
        self.cache = cache
        self.misses = 0

    def cache_clear(self):
        self.misses += self.cache.cache_info().misses
        self.cache.cache_clear()

    def total_misses(self):
        return self.misses + self.cache.cache_info().misses


def test_full_suite_passes_at_rank_five(capsys, monkeypatch):
    # the CLI prints discrepancy records to stderr, so an empty stderr means none
    fixed_points_by_reachability.cache_clear()
    reachable_masks.cache_clear()
    fixed_points = _CountedClear(fixed_points_by_reachability)
    passes = _CountedClear(reachable_masks)
    counted = {fixed_points_by_reachability: fixed_points, reachable_masks: passes}
    monkeypatch.setattr(verify, "UNIT_CACHES",
                        tuple(counted.get(c, c) for c in verify.UNIT_CACHES))

    def listed(S, k):
        raise AssertionError("the sweep listed reachable sets as tuples")

    monkeypatch.setattr(hesscomb.reach, "reachable_sets", listed)
    code = main(["verify", "--n", "5"])
    out, err = capsys.readouterr()
    summary = json.loads(out)
    assert code == 0
    assert summary["ok"]
    assert summary["hessenberg_count"] == 42
    assert err == ""
    assert out == GOLDEN_N5.read_text(encoding="utf-8")
    # each fixed point set is built once: 42 h times 120 v; the reachable
    # sets are found in one pass per class, 945 of them, and read as masks
    assert fixed_points.total_misses() == 42 * 120
    assert passes.total_misses() == 945


# Every lru_cache of the package that outlives a verify unit, with its key.
# Any other cache is keyed on h and must be in verify.UNIT_CACHES.
KEPT_CACHES = {
    "cli.build_parser": "no key: one parser per process",
    "hessenberg.hessenberg_roots": "h: one small frozenset per h, whose miss checks h; read "
                                   "by every class operation and every WeylSubset built",
    "oracles._cover_closure": "n: the rank",
    "orders._gale_table": "(low, high) prefix masks: at most C(2n, n) per rank",
    "orders.bruhat_interval": "(lo, hi) permutations: hits across h",
    "perms.all_perms": "n: the rank",
    "perms.inversion_set": "w: a permutation, whatever the h",
    "perms.mask_members": "mask: at most 2^n for the largest rank n used",
}


def _package_caches() -> dict:
    caches = {}
    for info in pkgutil.iter_modules(hesscomb.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"hesscomb.{info.name}")
        for attr, obj in vars(module).items():
            if isinstance(obj, functools._lru_cache_wrapper) and obj.__module__ == module.__name__:
                caches[f"{info.name}.{attr}"] = obj
    return caches


def test_every_cache_is_scoped_to_its_unit_or_kept():
    caches = _package_caches()
    scoped = {name for name, cache in caches.items() if cache in verify.UNIT_CACHES}
    assert len(scoped) == len(verify.UNIT_CACHES)
    assert scoped.isdisjoint(KEPT_CACHES)
    assert set(caches) == scoped | set(KEPT_CACHES)


def test_unit_caches_end_with_their_unit():
    bruhat_interval.cache_clear()
    summary, _ = run_suite(4)
    assert summary["ok"]
    for name, cache in _package_caches().items():
        if name not in KEPT_CACHES:
            assert cache.cache_info().currsize == 0, name
    assert bruhat_interval.cache_info().currsize > 0


def test_gale_tables_stay_within_their_bound():
    # a rank-5 sweep reads at most one table per pair of k-sets, sum_k C(5, k)^2
    bruhat_interval.cache_clear()
    _gale_table.cache_clear()
    summary, _ = run_suite(5)
    assert summary["ok"]
    assert 0 < _gale_table.cache_info().currsize <= math.comb(10, 5)


def test_gale_tables_hit_on_rank_seven_queries():
    _gale_table.cache_clear()
    mask_members.cache_clear()
    rng = random.Random(24)
    hs = list(enumerate_hessenberg(7))
    for _ in range(300):
        interval_family(tuple(rng.sample(range(1, 8), 7)), rng.choice(hs))
    info = _gale_table.cache_info()
    assert info.hits > info.misses
    # the member lists hit too, and a mask of bits 1..7 is one of 2^7
    members = mask_members.cache_info()
    assert members.hits > members.misses
    assert members.currsize <= 2**7


def test_unit_caches_end_when_a_check_raises(monkeypatch):
    def broken(S):
        raise RuntimeError("oracle down")

    monkeypatch.setattr(verify, "class_by_filter", broken)
    with pytest.raises(RuntimeError, match="oracle down"):
        run_suite(3, lemma="interval")
    # the interval check built one class before its oracle raised
    assert all(cache.cache_info().currsize == 0 for cache in verify.UNIT_CACHES)


def test_single_lemma_filter():
    summary, _ = run_suite(4, lemma="main-theorem")
    assert list(summary["lemmas"]) == ["main-theorem"]
    assert summary["lemmas"]["main-theorem"]["failures"] == 0
    assert summary["lemmas"]["main-theorem"]["checked"] > 0


def test_unknown_lemma_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_suite(3, lemma="no-such-lemma")


def test_rank_cap():
    with pytest.raises(ValueError, match="between 1 and"):
        run_suite(MAX_N + 1)
    with pytest.raises(ValueError):
        run_suite(0)


def test_parallel_run_matches_serial():
    serial, _ = run_suite(3)
    parallel, _ = run_suite(3, jobs=2)
    assert serial == parallel


def test_known_names():
    names = lemma_names()
    assert "main-theorem" in names
    assert "bruhat-oracle" in names
    assert names == sorted(names)


# instances per check at ranks 1..4; totals 22, 86, 594 and 6839
CHECKED = {
    "bruhat-oracle": (1, 4, 36, 576),
    "bruhat-partial-order": (1, 4, 36, 576),
    "cell-translation": (1, 4, 30, 336),
    "complement-bijection": (1, 3, 15, 105),
    "complement-involution": (1, 2, 6, 24),
    "dimension-count": (1, 2, 5, 14),
    "enumeration-count": (1, 1, 1, 1),
    "fixed-point-containment": (1, 4, 30, 336),
    "hessenberg-length": (1, 4, 30, 336),
    "interval": (1, 3, 15, 105),
    "inversion-root-action": (1, 2, 6, 24),
    "j-set-formula": (0, 4, 60, 1008),
    "largest-source-reach": (1, 3, 15, 105),
    "main-theorem": (1, 3, 15, 105),
    "minimal-inversions": (1, 3, 15, 105),
    "orientation-bijection": (1, 2, 5, 14),
    "partition": (1, 3, 15, 105),
    "reachability-order": (1, 9, 90, 1050),
    "reachable-monotone": (1, 3, 15, 105),
    "schubert-duality": (1, 3, 15, 105),
    "source-induction": (0, 4, 22, 160),
    "source-realization": (1, 3, 15, 105),
    "strict-containment": (0, 1, 15, 231),
    "vertex-deletion": (0, 4, 15, 56),
    "weak-implies-bruhat": (1, 4, 36, 576),
    "weak-order-reversal": (1, 4, 36, 576),
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_checked_counts_pinned(n):
    summary, _ = run_suite(n)
    got = {name: entry["checked"] for name, entry in summary["lemmas"].items()}
    assert got == {name: counts[n - 1] for name, counts in CHECKED.items()}
    assert sum(got.values()) == (22, 86, 594, 6839)[n - 1]


def test_registries():
    assert len(GLOBAL_CHECKS) == 7
    assert len(PER_H_CHECKS) == 19
    assert set(GLOBAL_CHECKS).isdisjoint(PER_H_CHECKS)


def test_failure_records(monkeypatch):
    # a broken oracle makes every Weyl-type subset at rank 3 fail
    monkeypatch.setattr("hesscomb.verify.class_by_filter", lambda S: frozenset())
    summary, discrepancies = run_suite(3, lemma="interval")
    assert summary["ok"] is False
    assert summary["lemmas"]["interval"] == {"checked": 15, "failures": 15}
    assert len(discrepancies) == 15
    assert len({json.dumps(d, sort_keys=True) for d in discrepancies}) == 15
    for record in discrepancies:
        assert set(record) == {"n", "h", "S", "operation"}
        assert record["n"] == 3
        assert record["operation"] == "interval"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bruhat_up_rows_match_bruhat_leq_and_cover_closure(n):
    perms = all_perms(n)
    by_leq = [sum(1 << j for j, v in enumerate(perms) if bruhat_leq(w, v)) for w in perms]
    index, above = _cover_closure(n)
    assert index == {p: j for j, p in enumerate(perms)}
    assert verify._bruhat_up_rows(n) == by_leq == above
    assert "bruhat_leq" not in vars(verify)


# failures at rank 3 when the identity's row loses the bit of w0: the pair
# (e, w0) in the oracle and weak-order checks, and in the partial-order check
# every (e, v) with e < v < w0, since v's row then escapes the identity's
ROW_FAILURES = {"bruhat-oracle": 1, "bruhat-partial-order": 4, "weak-implies-bruhat": 1}


@pytest.mark.parametrize("name", sorted(ROW_FAILURES))
def test_row_checks_catch_a_missing_bit(monkeypatch, name):
    real = verify._bruhat_up_rows

    def broken(n):
        up = real(n)
        up[0] &= ~(1 << len(up) - 1)
        return up

    monkeypatch.setattr(verify, "_bruhat_up_rows", broken)
    summary, discrepancies = run_suite(3, lemma=name)
    failures = ROW_FAILURES[name]
    assert summary["ok"] is False
    assert summary["lemmas"][name] == {"checked": 36, "failures": failures}
    assert discrepancies == [{"n": 3, "h": None, "S": None, "operation": name}] * failures


def _drop_w0_above_identity(real):
    # the identity's up-row loses w0, as in ROW_FAILURES
    def mutant(lo, hi):
        interval = real(lo, hi)
        return interval - {hi} if lo == identity(len(lo)) != hi else interval
    return mutant


def _orientation_ignored(real):
    # a downward edge (j, i) is walked upward too
    return lambda j, i, S: real(j, i, S) or (j, i) in hessenberg_roots(S.h)


# One mutant per check: the name verify binds and a factory that turns the
# real function into a broken one.  Each breaks the library function that
# its check tests, never the check itself or its witness.
MUTANTS = {
    "bruhat-oracle": ("bruhat_interval", _drop_w0_above_identity),
    "bruhat-partial-order": ("bruhat_interval", _drop_w0_above_identity),
    "cell-translation": ("fixed_points_by_translation", lambda real: lambda v, h: real(v, h) - {v}),
    "complement-bijection": ("complement", lambda real: lambda S: S),
    # composing in the wrong order
    "complement-involution": ("compose", lambda real: lambda a, b: real(b, a)),
    # h(i) - i summed over i from 0
    "dimension-count": ("total_dimension",
                        lambda real: lambda h: sum(v - i for i, v in enumerate(h))),
    "enumeration-count": ("all_perms", lambda real: lambda n: real(n)[:-1]),
    "fixed-point-containment": ("fixed_points_by_reachability",
                                lambda real: lambda w, h: real(w, h) | {identity(len(w))}),
    # every inversion, whatever h selects
    "hessenberg-length": ("hessenberg_length", lambda real: lambda w, h: length(w)),
    "interval": ("class_of", lambda real: lambda S: real(S) - {max_element(S)}),
    "inversion-root-action": ("inversion_set", lambda real: lambda w: real(w) - {(1, 2)}),
    # no reachable (n - 1)-set
    "j-set-formula": ("reachable_masks",
                      lambda real: lambda S: (*real(S)[:-2], frozenset(), real(S)[-1])),
    "largest-source-reach": ("largest_source", lambda real: lambda S: min(sources(S))),
    "main-theorem": ("fixed_points_by_reachability", lambda real: lambda w, h: real(w, h) - {w}),
    "minimal-inversions": ("min_element", lambda real: max_element),
    "orientation-bijection": ("enumerate_weyl_subsets", lambda real: lambda h: real(h)[1:]),
    "partition": ("class_of", lambda real: lambda S: real(S) - {max_element(S)}),
    "reachability-order": ("is_reachable", _orientation_ignored),
    "reachable-monotone": ("is_reachable", _orientation_ignored),
    "schubert-duality": ("schubert_fixed_points",
                         lambda real: lambda S: real(S) - {identity(S.n)}),
    # the first vertex deleted, whichever was asked for
    "source-induction": ("induced_subset", lambda real: lambda S, k: real(S, 1)),
    # sinks for sources
    "source-realization": ("sources",
                           lambda real: lambda S: {v for v in range(1, S.n + 1) if not S.after[v]}),
    # the whole Bruhat interval, as if every member were the class maximum
    "strict-containment": ("fixed_points_by_reachability",
                           lambda real: lambda w, h: bruhat_interval(w, longest_element(len(w)))),
    # the first vertex deleted, whichever was asked for
    "vertex-deletion": ("delete_vertex", lambda real: lambda h, k: real(h, 1)),
    "weak-implies-bruhat": ("bruhat_interval", _drop_w0_above_identity),
    # the identity taken for the top
    "weak-order-reversal": ("weak_left_leq",
                            lambda real: lambda u, v: real(u, v) or v == identity(len(v))),
}


def test_every_check_has_a_mutant():
    assert sorted(MUTANTS) == lemma_names()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_check_fails_under_its_mutant(monkeypatch, name):
    attribute, mutate = MUTANTS[name]
    monkeypatch.setattr(verify, attribute, mutate(getattr(verify, attribute)))
    summary, discrepancies = run_suite(3, lemma=name)
    assert summary["ok"] is False
    assert summary["lemmas"][name]["failures"] == len(discrepancies) > 0
    for record in discrepancies:
        assert set(record) == {"n", "h", "S", "operation"}
        assert (record["n"], record["operation"]) == (3, name)


def test_source_induction_failure_records(monkeypatch):
    # empty reduced classes lift to nothing, but every source has a
    # nonempty slice of its class, so each (S, source) verdict fails
    real = verify.class_of
    monkeypatch.setattr(verify, "class_of", lambda S: frozenset() if S.n == 2 else real(S))
    summary, discrepancies = run_suite(3, lemma="source-induction")
    assert summary["lemmas"]["source-induction"] == {"checked": 22, "failures": 22}
    assert {d["operation"] for d in discrepancies} == {"source-induction"}


# the records of a failing rank-3 run, recorded with one unit per (check, h):
# check-major, h in enumeration order, S in sorted order within h
INTERVAL_FAILURES = [
    ([1, 2, 3], []), ([1, 3, 3], []), ([1, 3, 3], [[2, 3]]), ([2, 2, 3], []),
    ([2, 2, 3], [[1, 2]]), ([2, 3, 3], []), ([2, 3, 3], [[1, 2]]),
    ([2, 3, 3], [[1, 2], [2, 3]]), ([2, 3, 3], [[2, 3]]), ([3, 3, 3], []),
    ([3, 3, 3], [[1, 2]]), ([3, 3, 3], [[1, 2], [1, 3]]),
    ([3, 3, 3], [[1, 2], [1, 3], [2, 3]]), ([3, 3, 3], [[1, 3], [2, 3]]),
    ([3, 3, 3], [[2, 3]]),
]
RANK_3_FAILURES = (
    [("bruhat-oracle", None, None)] * 13
    + [("interval", h, S) for h, S in INTERVAL_FAILURES]
    + [("orientation-bijection", h, None)
       for h in ([1, 2, 3], [1, 3, 3], [2, 2, 3], [2, 3, 3], [3, 3, 3])]
)


def test_failure_records_keep_their_order(monkeypatch):
    # one rank-global and two per-h checks fail; with one unit per h the two
    # per-h checks interleave in the run, so only the aggregation orders them
    monkeypatch.setattr("hesscomb.verify.bruhat_leq_by_covers", lambda w, v: w == v)
    monkeypatch.setattr("hesscomb.verify.class_by_filter", lambda S: frozenset())
    monkeypatch.setattr("hesscomb.verify.acyclic_orientations_by_enumeration", lambda h: [])
    serial = run_suite(3)
    parallel = run_suite(3, jobs=2)
    assert serial == parallel
    summary, discrepancies = serial
    assert summary["failures"] == len(RANK_3_FAILURES)
    got = [(d["operation"], d["h"], d["S"]) for d in discrepancies]
    assert got == RANK_3_FAILURES
    assert {d["n"] for d in discrepancies} == {3}


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError, match="jobs"):
        run_suite(2, jobs=0)


@pytest.mark.parametrize(
    "jobs, cpus, want",
    [(64, 3, 3), (64, 64, 5), (4, 64, 4), (2, 1, None)],
)
def test_workers_capped(monkeypatch, jobs, cpus, want):
    # main-theorem at rank 3 is five units, one per Hessenberg function;
    # the fake pool records its size and runs the units in this process
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr("hesscomb.verify.os.cpu_count", lambda: cpus)
    summary, _ = run_suite(3, lemma="main-theorem", jobs=jobs)
    assert summary["ok"]
    assert sizes == ([] if want is None else [want])
