"""hesscomb benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/ with
nothing installed.  Each workload is a closed loop with one client, and
its ops run in fresh processes (README.md says why each workload exists):

  verify-r5        `python -m hesscomb verify --n 5`, serial, cold caches
  fp-query-r7      distinct seeded (h, w) at n = 7, `fixed-points --method both`
  weyl-classes-r7  seeded h at n = 7, `weyl-subsets --h H`

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken by
replaying the untraced ops in traced processes.  The lines before it
restate the metrics under their workload names, and with --trace 1 add
the cache report and the slowest verify units.  Any failed output check
makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden" / "verify-n5.json"

# Timed ops per fresh process.  A sweep is its own process, as a user runs
# it; queries and listings share a process in slices, and the run keeps
# starting processes until its time is up, so set-up is sampled once per
# process and reported as the median.
OPS_PER_PROCESS = {"verify-r5": 1, "fp-query-r7": 100, "weyl-classes-r7": 5}
MIN_PROCESSES = 3
# Sweeps keep their caches cold, so their set-up is timed apart: this many
# interpreter starts with the CLI imported.
SETUP_PROBE = [sys.executable, "-c", "import hesscomb.cli"]
SETUP_PROBES = 15
SWEEP = [sys.executable, "-m", "hesscomb", "verify", "--n", "5"]
DEADLINE_S = 170.0
# In-process wall time of the heaviest checks of a serial rank-5 sweep, as
# recorded in ROADMAP.md; the traced verify-r5 run prints its own beside them.
ROADMAP_R5_S = {"cell-translation": 2.8, "fixed-point-containment": 2.8,
                "strict-containment": 2.1, "j-set-formula": 1.1}
ROADMAP_R5_TOTAL_S = 9.6
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Run:
    """Subprocess bookkeeping for one benchmark run."""

    def __init__(self):
        self.t0 = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t0)

    def start(self, cmd):
        return subprocess.Popen(cmd, cwd=ROOT, env=self.env, bufsize=0,
                                stdout=subprocess.PIPE, start_new_session=True)

    def finish(self, proc) -> tuple[int, bytes]:
        """Wait for proc within the run's deadline, killing its whole
        process group when it overruns."""
        try:
            out, _ = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            return -signal.SIGKILL, out
        return proc.returncode, out

    def first_line(self, proc) -> bytes:
        """Block until the worker prints a line ("ready" unless set-up
        failed), reading byte by byte from the unbuffered pipe so that
        nothing after it is consumed."""
        line = b""
        while not line.endswith(b"\n"):
            readable, _, _ = select.select([proc.stdout], [], [], max(self.remaining(), 1.0))
            byte = proc.stdout.read(1) if readable else b""
            if not byte:
                break
            line += byte
        return line


def another(run: Run, t0: float, done: int, min_done: int, seconds: float) -> bool:
    """Whether to start one more op (or worker): always up to min_done, then
    while it should end within `seconds`, and never past the deadline."""
    elapsed = time.perf_counter() - t0
    each = elapsed / done if done else 0.0
    if run.remaining() < 2 * each:
        return False
    return done < min_done or elapsed + each <= seconds


def timed(run: Run, cmd) -> tuple[float, int, bytes]:
    t = time.perf_counter()
    rc, out = run.finish(run.start(cmd))
    return time.perf_counter() - t, rc, out


def worker(run: Run, spec: dict) -> tuple[float, dict]:
    """Start one worker, returning its set-up time (spawn to ready) and its
    report; a worker that dies counts as one failed op."""
    t = time.perf_counter()
    proc = run.start([sys.executable, str(HERE / "worker.py"), json.dumps(spec)])
    first = run.first_line(proc)
    setup = time.perf_counter() - t
    rc, out = run.finish(proc)
    lines = (first + out).decode().strip().splitlines()
    report = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if first != b"ready\n" or rc != 0 or "latencies" not in report:
        error = report.get("error", f"worker exit {rc}")
        return setup, {"latencies": [], "work": 0, "errors": [f"{error}: {spec}"],
                       "crashed": True, "trace": None}
    return setup, report


# -- workloads ----------------------------------------------------------------

def sweeps(run: Run, seconds: float, min_ops: int) -> dict:
    """Untraced sweeps through the real CLI, each its own process.  There is
    no warm-up to time, so set-up is the interpreter start and import."""
    golden = GOLDEN.read_bytes()
    res = {"latencies": [], "work": 0, "errors": [], "slices": [],
           "setups": [timed(run, SETUP_PROBE)[0] for _ in range(SETUP_PROBES)]}
    t0 = time.perf_counter()
    while another(run, t0, len(res["latencies"]), min_ops, seconds):
        dt, rc, out = timed(run, SWEEP)
        res["latencies"].append(dt)
        res["work"] += 1
        res["slices"].append(1)
        if rc != 0 or out != golden:
            res["errors"].append(f"verify --n 5: exit {rc}, stdout "
                                 f"{'matches' if out == golden else 'differs from'} golden")
    res["rss_mb"] = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]
    return res


def workers(run: Run, name: str, seed: int, seconds: float = 0.0,
            slices=None, trace=False) -> dict:
    """Slices of the op stream in fresh worker processes.  Untraced, the run
    starts at least MIN_PROCESSES workers, and another while it should end
    within `seconds`; replaying, each worker runs exactly the slice an
    untraced worker ran."""
    per = OPS_PER_PROCESS[name]
    res = {"latencies": [], "work": 0, "errors": [], "setups": [], "slices": [],
           "rss_mb": [], "traces": []}
    start = 0
    t0 = time.perf_counter()
    while True:
        i = len(res["slices"])
        if slices is not None:
            if i == len(slices):
                break
            count = slices[i]
        else:
            if not another(run, t0, i, MIN_PROCESSES, seconds):
                break
            count = per
        spec = {"workload": name, "seed": seed, "worker": i, "start": start,
                "count": count, "trace": trace}
        setup, report = worker(run, spec)
        res["setups"].append(setup)
        res["latencies"] += report["latencies"]
        res["work"] += report["work"]
        res["errors"] += report["errors"]
        res["slices"].append(len(report["latencies"]))
        if report.get("rss_mb"):
            res["rss_mb"].append(report["rss_mb"])
        if report["trace"]:
            res["traces"].append(report["trace"])
        start += len(report["latencies"])
        if report.get("crashed"):
            res["crashed"] = 1
            break
        if len(report["latencies"]) < count:
            break  # the stream is exhausted
    return res


def untraced(run, name, seed, seconds, min_ops):
    if name == "verify-r5":
        return sweeps(run, seconds, min_ops)
    return workers(run, name, seed, seconds)


# -- metrics ------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest listed percentile with at least ten samples beyond it,
    or the maximum when there are too few samples for any."""
    xs = sorted(latencies)
    for level in TAIL_LEVELS:
        k = math.ceil(len(xs) * level / 100)
        if k >= 1 and len(xs) - k >= 10:
            return xs[k - 1], level
    return xs[-1], 100.0


def median(xs) -> float:
    """The median, or 0.0 when a failure left no samples."""
    return statistics.median(xs) if xs else 0.0


def end_to_end(name: str, res: dict) -> tuple[dict, list[str]]:
    lat = res["latencies"]
    op_s = sum(lat)
    attempted = len(lat) + res.get("crashed", 0)
    failed = len(res["errors"])
    metrics = {
        "throughput_per_s": (res["work"] / op_s if op_s else 0.0, "1/s"),
        "setup_s": (median(res["setups"]), "s"),
        "peak_rss_mb": (median(res["rss_mb"]), "MB"),
    }
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
             "failed_frac": (failed / attempted if attempted else 1.0, "ratio")}
    notes = [f"ops={len(lat)} work={res['work']} op_time_s={op_s:.3f} "
             f"setup_samples={len(res['setups'])}"]
    if lat:
        p50 = statistics.median(lat)
        t, level = tail(lat)
        if name == "verify-r5":
            named["sweep_s"] = (p50, "s")
        elif name == "fp-query-r7":
            named["query_p50_ms"] = (p50 * 1e3, "ms")
            named["query_tail_ms"] = (t * 1e3, "ms")
            named["queries_per_s"] = metrics["throughput_per_s"]
            notes.append(f"query_tail_ms is p{level:g} of {len(lat)} queries")
        else:
            named["classes_per_s"] = metrics["throughput_per_s"]
            notes.append(f"listing latency p50 {p50 * 1e3:.1f} ms, p{level:g} "
                         f"{t * 1e3:.1f} ms over {len(lat)} listings")
    return metrics, [f"{k} = {v:.6g} {u}" for k, (v, u) in sorted(named.items())] + notes


def ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(trace: dict, overhead: float, names) -> tuple[dict, list[str]]:
    spans, counts, caches = trace["spans"], trace["counts"], trace["caches"]
    alias = {"fixed_points.by_reachability": "fixed_points.fixed_points_by_reachability",
             "fixed_points.by_translation": "fixed_points.fixed_points_by_translation",
             "fixed_points.by_interval": "fixed_points.fixed_points_by_interval",
             "fixed_points.schubert": "fixed_points.schubert_fixed_points"}

    def module_self(prefix):
        return sum((v[2] for k, v in spans.items() if k.startswith(prefix + ".")), 0.0)

    def value(metric):
        base, _, field = metric.rpartition(".")
        span = spans.get(alias.get(base, base), [0, 0.0, 0.0])
        cache = caches.get(alias.get(base, base), {"hits": 0, "misses": 0, "currsize": 0})
        if metric == "trace.overhead_frac":
            return overhead
        if metric == "reach.match_yield":
            return ratio(counts.get("reach.match.yielded", 0), counts.get("reach.match.tested", 0))
        if metric in ("hessenberg.self_s", "oracles.self_s"):
            return module_self(base)
        if base.startswith("verify."):
            return span[1] if field == "s" else span[0]
        if field == "calls":
            return span[0]
        if field == "self_s":
            return span[2]
        if field == "hit_ratio":
            return ratio(cache["hits"], cache["hits"] + cache["misses"])
        if field == "currsize":
            return cache["currsize"]
        if field == "keep_ratio":
            return ratio(counts.get(base + ".kept", 0), counts.get(base + ".scanned", 0))
        raise KeyError(metric)

    metrics = {m["name"]: (value(m["name"]), m["unit"]) for m in names}
    lines = ["cache report (hits, misses, currsize delta, currsize):"]
    for key, c in sorted(caches.items()):
        lines.append(f"  {key}: {c['hits']} {c['misses']} {c['currsize_delta']:+d} {c['currsize']}")
    if trace["units"]:
        lines.append("slowest (check, h) units, traced:")
        lines += [f"  {dt:.3f} s {check} h={h}" for dt, check, h in trace["units"]]
    return metrics, lines


def roadmap_comparison(metrics: dict) -> list[str]:
    total = sum(v for k, (v, _) in metrics.items() if k.startswith("verify.") and k.endswith(".s"))
    lines = ["per-check share of the rank-5 sweep, traced here vs ROADMAP.md (in-process):"]
    for check, ref in ROADMAP_R5_S.items():
        s = metrics[f"verify.{check}.s"][0]
        lines.append(f"  {check}: {s:.2f} s = {ratio(s, total):.0%} here, "
                     f"{ref} s = {ref / ROADMAP_R5_TOTAL_S:.0%} in ROADMAP")
    return lines


# -- main -----------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(OPS_PER_PROCESS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hesscomb" / "__init__.py").is_file():
        print(f"no hesscomb sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run()

    if not args.trace:
        res = untraced(run, args.workload, args.seed, args.seconds, MIN_PROCESSES)
        metrics, lines = end_to_end(args.workload, res)
        wanted = spec["end_to_end"]
    else:
        # Half the time untraced, then the same ops replayed in traced fresh
        # processes (sweeps in-process through cli.main, one per process).
        res = untraced(run, args.workload, args.seed, args.seconds / 2, 1)
        replay = workers(run, args.workload, args.seed, slices=res["slices"], trace=True)
        base, trace_s = sum(res["latencies"]), sum(replay["latencies"])
        overhead = ratio(trace_s, base) - 1 if base and trace_s else 0.0
        merged = merge(replay["traces"])
        metrics, lines = per_layer(merged, overhead, spec["per_layer"])
        if args.workload == "verify-r5":
            lines += roadmap_comparison(metrics)
        lines.append(f"traced op time {trace_s:.3f} s vs untraced {base:.3f} s")
        res["errors"] += replay["errors"]
        res["crashed"] = res.get("crashed", 0) + replay.get("crashed", 0)
        res["latencies"] += replay["latencies"]
        wanted = spec["per_layer"]

    missing = {m["name"] for m in wanted} - set(metrics)
    if missing:
        raise SystemExit(f"metrics not produced: {sorted(missing)}")
    for line in lines:
        print(line)
    for error in res["errors"][:20]:
        print("FAILED:", error)
    attempted = len(res["latencies"]) + res.get("crashed", 0)
    failed = len(res["errors"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if failed == 0 and attempted else 1


if __name__ == "__main__":
    sys.exit(main())
