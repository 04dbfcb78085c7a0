"""Spans and cache counters around the hesscomb package, installed from outside.

`install()` replaces every public function of each module (and each entry
of the verify check registries) by a wrapper that records calls, wall time
and self time, then rebinds every name in the package that pointed at the
original.  Nothing under src/ is edited; modules resolve their globals at
call time, so calls between modules go through the wrappers too.

Self time is a span's duration minus the time its child spans cover.  The
wrapper's own cost lands in the caller's self time, so self times of
layers that call many tiny spanned functions read high; the benchmark
reports the whole-run overhead as trace.overhead_frac.
"""

from __future__ import annotations

import functools
import inspect
import math
import time

LAYERS = ("cli", "verify", "fixed_points", "reach", "orders", "weyl",
          "perms", "hessenberg", "oracles")

# In cli only the entry point is spanned, so its self time is argument
# parsing plus JSON emission.
CLI_SPANNED = ("main",)
# weak_interval calls inversion_set once per permutation scanned, millions
# of times in a listing run; a span there tripled the run.  Its cost stays
# in its callers' self time, and its cache is still reported.
UNSPANNED = ("perms.inversion_set",)


def _is_cached(obj) -> bool:
    return isinstance(obj, functools._lru_cache_wrapper)


def _package_modules():
    import importlib
    import hesscomb

    mods = {name: importlib.import_module(f"hesscomb.{name}") for name in LAYERS}
    return hesscomb, mods


class Tracer:
    """Per-process span statistics, cache baselines and ratio counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.units: list[tuple[float, str, object]] = []
        self.caches: dict[str, object] = {}
        self.cache_base: dict[str, tuple] = {}
        self._stack: list[float] = []

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result, dt)
            return result

        return functools.update_wrapper(span, fn)

    def _count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _kept(self, key, cached_fn=None):
        """Count results kept over the n! permutations scanned.  A cached
        function scans only when its miss count rose during the call."""
        state = {"misses": cached_fn.cache_info().misses if cached_fn else 0}

        def after(args, result, dt):
            if cached_fn is not None:
                misses = cached_fn.cache_info().misses
                if misses == state["misses"]:
                    return
                state["misses"] = misses
            self._count(key + ".kept", len(result))
            self._count(key + ".scanned", math.factorial(len(args[0])))

        return after

    def _match_yield(self, args, result, dt):
        w, _, k = args
        self._count("reach.match.yielded", len(result))
        self._count("reach.match.tested", math.comb(len(w), k))

    def _unit(self, check):
        def after(args, result, dt):
            h = args[1] if len(args) > 1 else None
            self.units.append((dt, check, h))

        return after

    def install(self):
        """Wrap the package in place and take the cache baselines; call once,
        after import and before the work to trace."""
        package, mods = _package_modules()
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if _is_cached(obj) and obj.__module__ == mod.__name__:
                    self.caches[f"{name}.{attr}"] = obj
        cached = {id(fn) for fn in self.caches.values()}

        after = {
            ("fixed_points", "fixed_points_by_reachability"):
                self._kept("fixed_points.by_reachability",
                           mods["fixed_points"].fixed_points_by_reachability),
            ("orders", "bruhat_interval"):
                self._kept("orders.bruhat_interval", mods["orders"].bruhat_interval),
            ("orders", "weak_interval"): self._kept("orders.weak_interval"),
            ("reach", "reachable_tuples"): self._match_yield,
        }
        replace: dict[int, object] = {}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or id(obj) in cached):
                    continue
                if name == "cli" and attr not in CLI_SPANNED:
                    continue
                if f"{name}.{attr}" in UNSPANNED:
                    continue
                replace[id(obj)] = self._span(f"{name}.{attr}", obj, after.get((name, attr)))

        for mod in (package, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])

        verify = mods["verify"]
        for registry in (verify.GLOBAL_CHECKS, verify.PER_H_CHECKS):
            for check, fn in list(registry.items()):
                registry[check] = self._span(f"verify.{check}", fn, self._unit(check))
        self.cache_base = {k: self._cache_tuple(fn) for k, fn in self.caches.items()}

    # -- state ------------------------------------------------------------

    @staticmethod
    def _cache_tuple(fn):
        info = fn.cache_info()
        return (info.hits, info.misses, info.currsize)

    def snapshot(self) -> dict:
        caches = {}
        for key, fn in self.caches.items():
            hits, misses, size = self._cache_tuple(fn)
            h0, m0, s0 = self.cache_base[key]
            caches[key] = {"hits": hits - h0, "misses": misses - m0,
                           "currsize_delta": size - s0, "currsize": size}
        return {
            "spans": {k: v for k, v in self.stats.items() if v[0]},
            "counts": self.counts,
            "caches": caches,
            "units": sorted(self.units, key=lambda u: -u[0])[:5],
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum snapshots of several processes; currsize is the largest seen."""
    out = {"spans": {}, "counts": {}, "caches": {}, "units": []}
    for snap in snapshots:
        for k, (calls, total, self_s) in snap["spans"].items():
            acc = out["spans"].setdefault(k, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for k, v in snap["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        for k, c in snap["caches"].items():
            acc = out["caches"].setdefault(
                k, {"hits": 0, "misses": 0, "currsize_delta": 0, "currsize": 0})
            for f in ("hits", "misses", "currsize_delta"):
                acc[f] += c[f]
            acc["currsize"] = max(acc["currsize"], c["currsize"])
        out["units"].extend(snap["units"])
    out["units"] = sorted(out["units"], key=lambda u: -u[0])[:5]
    return out
