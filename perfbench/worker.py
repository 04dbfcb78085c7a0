"""One fresh benchmark process: set up, run a slice of a workload's op
stream in-process through hesscomb.cli.main, check every output, report.

Usage: python perfbench/worker.py '<json spec>'

The spec names the workload, the seed, the slice of the timed op stream
(start index and count), the worker's index (which picks its warm-up op)
and whether to trace.  The process prints "ready" once import and warm-up
are done, then one JSON line with the per-op latencies, the work done, the
failures, its own peak RSS and, when traced, the span and cache snapshot.
Spans cover the warm-up too, so work done once in set-up (such as building
all_perms(7)) shows in them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import resource
import sys
import time

from spans import Tracer

N = 7
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "verify-n5.json")


def hessenberg_functions(n: int) -> list[tuple[int, ...]]:
    """All Hessenberg functions on [n] in lexicographic order, built here so
    that the inputs do not depend on the program under test."""
    out = []

    def grow(prefix):
        i = len(prefix) + 1
        if i > n:
            out.append(tuple(prefix))
            return
        for v in range(max(i, prefix[-1] if prefix else 1), n + 1):
            grow(prefix + [v])

    grow([])
    return out


def class_count(h) -> int:
    """Number of Weyl-type subsets of h: the acyclic orientations of its
    incomparability graph, |chi(-1)| by Stanley's theorem.  The graph is a
    unit interval graph and 1..n reversed is a perfect elimination order, so
    chi(x) = prod (x - a_i) with a_i the earlier neighbours of vertex i."""
    n = len(h)
    return math.prod(1 + sum(1 for j in range(1, i) if h[j - 1] >= i)
                     for i in range(1, n + 1))


def fmt(values) -> str:
    return ",".join(map(str, values))


# -- op streams -----------------------------------------------------------------
#
# A timed stream never repeats a key.  Each worker's warm-up key comes from
# its own seeded draw and is never one of that worker's timed keys, so
# warm-up primes no cache that a timed op then hits.

def random_pair(rng, hs):
    return hs[rng.randrange(len(hs))], tuple(rng.sample(range(1, N + 1), N))


def query_stream(seed: int):
    """Distinct (h, w) at rank 7: h uniform over the 429 functions, w
    uniform over S_7."""
    rng = random.Random(f"fp-query-r7/{seed}")
    hs = hessenberg_functions(N)
    seen = set()
    while True:
        key = random_pair(rng, hs)
        if key not in seen:
            seen.add(key)
            yield key


def query_warmup(seed: int, worker: int, timed: list):
    rng = random.Random(f"fp-query-r7/warm-up/{seed}/{worker}")
    hs = hessenberg_functions(N)
    while True:
        key = random_pair(rng, hs)
        if key not in timed:
            return key


def classes_stream(seed: int):
    """Every h at rank 7 once, in an order whose every prefix has about the
    same mix of listing sizes.  Listing cost grows with the class count,
    which spans 1 to 5040, so h is sorted by class count (seeded tie-break)
    and walked by a golden-ratio sequence from a seeded start."""
    rng = random.Random(f"weyl-classes-r7/{seed}")
    hs = sorted(hessenberg_functions(N), key=lambda h: (class_count(h), rng.random()))
    step = (math.sqrt(5) - 1) / 2
    u = rng.random()
    seen = set()
    while len(seen) < len(hs):
        i = int(u * len(hs))
        u = (u + step) % 1.0
        if i not in seen:
            seen.add(i)
            yield hs[i]


def classes_warmup(seed: int, worker: int, timed: list):
    """A listing of at most 8 classes, so that set-up stays small."""
    rng = random.Random(f"weyl-classes-r7/warm-up/{seed}/{worker}")
    return rng.choice([h for h in hessenberg_functions(N)
                       if class_count(h) <= 8 and h not in timed])


# -- ops ------------------------------------------------------------------------

def run_cli(main, argv):
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return time.perf_counter() - t0, rc, buf.getvalue()


def query_op(main, key):
    """Returns (latency, work, error or None)."""
    h, w = key
    dt, rc, out = run_cli(main, ["fixed-points", "--h", fmt(h), "--w", fmt(w),
                                 "--method", "both"])
    where = f"fixed-points --h {fmt(h)} --w {fmt(w)}"
    if rc != 0:
        return dt, 1, f"{where}: exit {rc}"
    payload = json.loads(out)
    if payload["agree"] is not True or payload["chl"] != payload["interval"]:
        return dt, 1, f"{where}: routes disagree"
    if list(w) not in payload["chl"]:
        return dt, 1, f"{where}: w not in its own fixed points"
    return dt, 1, None


def classes_op(main, h):
    dt, rc, out = run_cli(main, ["weyl-subsets", "--h", fmt(h)])
    where = f"weyl-subsets --h {fmt(h)}"
    if rc != 0:
        return dt, 0, f"{where}: exit {rc}"
    records = json.loads(out)
    if sum(r["class_size"] for r in records) != math.factorial(len(h)):
        return dt, len(records), f"{where}: class sizes do not sum to n!"
    if len(records) != class_count(h):
        return dt, len(records), f"{where}: {len(records)} classes, expected {class_count(h)}"
    return dt, len(records), None


def sweep_op(main, key):
    dt, rc, out = run_cli(main, ["verify", "--n", "5"])
    with open(GOLDEN, encoding="utf-8") as fh:
        same = out == fh.read()
    if rc != 0 or not same:
        return dt, 1, f"verify --n 5: exit {rc}, stdout {'matches' if same else 'differs from'} golden"
    return dt, 1, None


OPS = {
    "verify-r5": (None, None, sweep_op),
    "fp-query-r7": (query_stream, query_warmup, query_op),
    "weyl-classes-r7": (classes_stream, classes_warmup, classes_op),
}


def main(spec: dict) -> dict:
    from hesscomb import cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    stream, warmup, op = OPS[spec["workload"]]
    if stream is None:
        keys = [None] * spec["count"]
    else:
        keys = list(itertools.islice(stream(spec["seed"]), spec["start"],
                                     spec["start"] + spec["count"]))
        _, _, error = op(cli.main, warmup(spec["seed"], spec["worker"], keys))
        if error:
            return {"error": "warm-up: " + error}
    print("ready", flush=True)

    latencies, work, errors = [], 0, []
    for key in keys:
        dt, done, error = op(cli.main, key)
        latencies.append(dt)
        work += done
        if error:
            errors.append(error)
    return {
        "latencies": latencies,
        "work": work,
        "errors": errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.snapshot() if tracer else None,
    }


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result), flush=True)
