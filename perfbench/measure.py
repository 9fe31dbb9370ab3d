"""Shared measurement helpers: quantiles, timing and result assembly."""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import Counter
from typing import Dict, List, Optional

clock = time.perf_counter
clock_ns = time.perf_counter_ns


def quantile(samples: List[int], q: float) -> float:
    """Nearest-rank quantile of ``samples``."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def slower_quartile(values: List[float], higher_is_better: bool) -> float:
    """The value a quarter of ``values`` fall on the slow side of.

    The host speeds up in bursts of seconds to minutes (another tenant's
    idle stretches), and a burst moves every figure it covers.  Taking
    the 25th percentile of rates, or the 75th of times, reports the
    host's usual speed unless a burst covers three quarters of a run.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[
        0 if higher_is_better else 2]


def drop_program_caches() -> None:
    """Forget what the program caches once per process.

    The man-page corpus is parsed on first use and kept in a module
    global, and the fast path compiles each code template once per
    shape.  Dropping both before every build makes each build pay for
    them, as the first build of a process does.
    """
    from repro.manpages import corpus
    from repro.wrappers import fastpath

    corpus._CACHE = None
    fastpath._template.cache_clear()
    fastpath._fused_guard_template.cache_clear()


class Setups:
    """Cold builds of a workload's program objects, spread over a run.

    The host changes speed over seconds to minutes, so builds made back
    to back all see one speed.  A run builds once before its timed phase
    and again between rounds (untraced runs only, so the spans stay the
    timed phase's own); setup_s is the median of all its builds.
    """

    def __init__(self, build) -> None:
        self.build = build
        self.durations: List[float] = []

    def timed(self):
        """One cold build; returns what it built."""
        drop_program_caches()
        gc.collect()
        start = clock()
        result = self.build()
        self.durations.append(clock() - start)
        return result

    def between_rounds(self) -> None:
        """One more cold build, dropped with its garbage at once."""
        self.timed()
        gc.collect()

    def median(self) -> float:
        return statistics.median(self.durations)


def peak_rss_mib() -> float:
    """Peak resident size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """The timed phase of one run, kept round by round.

    Every round repeats the same operations, so each end-to-end metric
    is taken per round and the run reports the slower quartile over its
    rounds (see :func:`slower_quartile`).
    """

    def __init__(self) -> None:
        #: the current round's per-operation latencies; each round keeps
        #: only its quantiles, so memory does not grow with throughput
        self.latencies_ns: List[int] = []
        self.round_rates: List[float] = []
        self.round_p50_ns: List[float] = []
        self.round_p90_ns: List[float] = []
        self.attempted = 0
        self.failed = 0

    def end_round(self, operations: int, seconds: float) -> None:
        samples = self.latencies_ns
        if len(samples) < 100:
            raise RuntimeError(f"{len(samples)} latencies in a round: "
                               "fewer than ten would lie beyond its p90")
        self.round_rates.append(operations / seconds)
        self.round_p50_ns.append(quantile(samples, 0.50))
        self.round_p90_ns.append(quantile(samples, 0.90))
        samples.clear()

    def end_to_end(self, setup_s: float) -> Dict[str, dict]:
        return metrics({
            "ops_per_s": (slower_quartile(self.round_rates, True), "1/s"),
            "latency_p50_us":
                (slower_quartile(self.round_p50_ns, False) / 1e3, "us"),
            "latency_p90_us":
                (slower_quartile(self.round_p90_ns, False) / 1e3, "us"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        })


def metrics(values: Dict[str, tuple]) -> Dict[str, dict]:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


class LayerDelta:
    """Tracer totals and counters summed over the timed spans of a run.

    Bracket each timed stretch with :meth:`start` and :meth:`stop`;
    set-up and verification between stretches are left out.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._before = None

    def _snapshot(self):
        totals = self.tracer.totals()
        return (dict(totals["self"]), dict(totals["total"]),
                dict(totals["calls"]), dict(self.tracer.counts))

    def start(self) -> None:
        self._before = self._snapshot()

    def stop(self) -> None:
        after = self._snapshot()
        for sums, now, then in zip(
                (self.self_ns, self.total_ns, self.calls, self.counts),
                after, self._before):
            for key, value in now.items():
                sums[key] += value - then.get(key, 0)


#: every per-layer metric and its unit
PER_LAYER_UNITS = {
    "apps.self_us_per_op": "us",
    "wrappers.self_us_per_op": "us",
    "libc.self_us_per_op": "us",
    "libc.calls_per_op": "count",
    "memory.self_us_per_op": "us",
    "memory.resolves_per_op": "count",
    "memory.searches_per_op": "count",
    "memory.heap_mutations_per_op": "count",
    "memory.integrity_us_per_op": "us",
    "wrappers.trace_hits_per_op": "count",
    "wrappers.deopts_per_op": "count",
    "wrappers.table_calls_per_op": "count",
    "wrappers.fallback_calls_per_op": "count",
    "robust.memo_hits_per_op": "count",
    "robust.memo_misses_per_op": "count",
    "runtime.fuel_per_op": "fuel",
    "runtime.fuel_calls_per_op": "count",
    "runtime.process_us_per_op": "us",
    "runtime.self_us_per_op": "us",
    "telemetry.self_us_per_op": "us",
    "telemetry.events_per_op": "count",
    "ftypes.self_us_per_op": "us",
    "profiling.parse_us_per_op": "us",
    "collection.store_us_per_op": "us",
    "collection.fleet_us_per_op": "us",
    "collection.spool_us_per_op": "us",
    "collection.commits_per_op": "count",
    "collection.frames_per_op": "count",
    "collection.credit_waits_per_op": "count",
    "trace.ops_per_s": "1/s",
}


def per_layer(delta: LayerDelta, ops: int, phase: Phase,
              counters: Optional[Dict[str, float]] = None) -> Dict[str, dict]:
    """Every per-layer metric, per operation of the timed phase.

    Times come from the tracer's spans; ``counters`` carries the
    program's own counter deltas (named as in :data:`PER_LAYER_UNITS`,
    totals over the phase).  A layer the workload never enters reads 0.
    """
    if ops < 1:
        raise RuntimeError("no operations in the timed phase")
    us = {layer: ns / 1e3 / ops for layer, ns in delta.self_ns.items()}
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update({
        "apps.self_us_per_op": us.get("apps", 0.0),
        "wrappers.self_us_per_op": us.get("wrappers", 0.0),
        "libc.self_us_per_op": us.get("libc", 0.0),
        "libc.calls_per_op": delta.calls.get("libc", 0) / ops,
        "memory.self_us_per_op": us.get("memory", 0.0),
        "memory.integrity_us_per_op": us.get("integrity", 0.0),
        "runtime.fuel_calls_per_op": delta.counts.get("fuel_calls", 0) / ops,
        "runtime.process_us_per_op":
            delta.total_ns.get("process", 0) / 1e3 / ops,
        "runtime.self_us_per_op": us.get("runtime", 0.0),
        "telemetry.self_us_per_op": us.get("telemetry", 0.0),
        "ftypes.self_us_per_op": us.get("ftypes", 0.0),
        "profiling.parse_us_per_op": us.get("parse", 0.0),
        "collection.store_us_per_op": us.get("store", 0.0),
        "collection.fleet_us_per_op": us.get("fleet", 0.0),
        "collection.spool_us_per_op": us.get("spool", 0.0),
        "collection.commits_per_op": delta.counts.get("commits", 0) / ops,
        "collection.credit_waits_per_op":
            delta.counts.get("credit_waits", 0) / ops,
        "trace.ops_per_s": slower_quartile(phase.round_rates, True),
    })
    for name, total in (counters or {}).items():
        values[name] = total / ops
    return metrics({name: (value, PER_LAYER_UNITS[name])
                    for name, value in values.items()})
