"""The named property checks and their sweep driver."""

import json

import pytest

from hesscomb.verify import GLOBAL_CHECKS, MAX_N, PER_H_CHECKS, lemma_names, run_suite


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


def test_full_suite_passes_at_rank_five():
    summary, discrepancies = run_suite(5)
    assert summary["ok"]
    assert summary["hessenberg_count"] == 42
    assert discrepancies == []


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

    monkeypatch.setattr("hesscomb.verify.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr("hesscomb.verify.os.cpu_count", lambda: cpus)
    summary, _ = run_suite(3, lemma="main-theorem", jobs=jobs)
    assert summary["ok"]
    assert sizes == ([] if want is None else [want])
