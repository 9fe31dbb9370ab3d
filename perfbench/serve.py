"""serve-hot and serve-churn: one ServingSession driven in a closed loop.

One caller sends a request and waits for its reply before the next, as
the servers are in-process simulations with no network.  Every reply
line is predicted by the protocol models in :mod:`oracles`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Optional

from measure import LayerDelta, Phase, Setups, clock, clock_ns, per_layer
from oracles import MODELS
import tracing

from repro.apps import HTTPD, KVD
from repro.libc import standard_registry
from repro.manpages import load_corpus
from repro.serving import LoadGenerator, ServingSession
from repro.telemetry import MetricsSink
from repro.wrappers.presets import full_coverage_api

#: requests per round; every round replays the same seeded stream
ROUND = 1000
#: untimed requests served after set-up and before the timed phase: the
#: first ~1,500 requests after the 200-request warmup run slower
SETTLE = 3000
#: rounds between two cold builds (a build takes about 0.1 s): about
#: 2.5 s, so a run's builds sample the host across the whole run
SETUP_EVERY = 10


@dataclass(frozen=True)
class ServeSpec:
    app: object
    preset: str
    mix: str
    metrics_sink: bool


SPECS = {
    "serve-hot": ServeSpec(HTTPD, "robustness", "hot", False),
    "serve-churn": ServeSpec(KVD, "hardened", "storm", True),
}


class Served:
    """A built session plus the oracle that follows everything it serves."""

    def __init__(self, spec: ServeSpec, seed: int,
                 tracer: Optional[tracing.Tracer]):
        registry = standard_registry()
        app = spec.app
        if tracer is not None:
            tracing.instrument_registry(tracer, registry)
            app = tracing.instrument_app(tracer, app)
        api = full_coverage_api(registry, load_corpus())
        self.session = ServingSession(app, preset=spec.preset,
                                      registry=registry, api=api,
                                      fused=True)
        self.metrics = None
        if spec.metrics_sink:
            self.metrics = self.session.built.bus.subscribe(MetricsSink())
        self.model = MODELS[spec.app.name]()
        self.problems = []
        generator = LoadGenerator(spec.app.name, mix=spec.mix, seed=seed)
        self.stream = generator.stream(ROUND)
        self.session.record_traces(generator.warmup, generator.samples)
        self.serve_untimed(generator.warmup)
        self.serve_untimed(generator.stream(200))

    def serve_untimed(self, requests) -> None:
        for request in requests:
            if not self.session.serve_one(request):
                self.problems.append("server shut down on a benign request")
                return
        self.check([request.line for request in requests])

    def check(self, lines) -> None:
        """Compare the replies since the last check with the model."""
        stdout = self.session.process.fs.stdout
        produced = bytes(stdout).split(b"\n")
        # consume what was checked, as a reader of the pipe would
        stdout.clear()
        if produced and produced[-1] == b"":
            produced.pop()
        expected = [self.model.reply(line) for line in lines if line]
        if produced != expected:
            for index, (got, want) in enumerate(zip(produced, expected)):
                if got != want:
                    self.problems.append(
                        f"reply {index}: {got!r}, expected {want!r}")
                    break
            else:
                self.problems.append(f"{len(produced)} replies for "
                                     f"{len(expected)} requests")

    def security_problems(self, metrics: MetricsSink) -> None:
        if sum(metrics.violations.values()):
            self.problems.append(f"violations: {dict(metrics.violations)}")
        if sum(metrics.security_events.values()):
            self.problems.append(
                f"security events: {dict(metrics.security_events)}")


def run(workload: str, seed: int, seconds: float,
        tracer: Optional[tracing.Tracer]) -> dict:
    spec = SPECS[workload]
    setups = Setups(lambda: Served(spec, seed, tracer))
    served = setups.timed()
    session = served.session
    stream = served.stream
    lines = [request.line for request in stream]
    for _ in range(SETTLE // ROUND):
        served.serve_untimed(stream)

    image = session.image
    process = session.process
    space = process.space
    bus = session.built.bus

    def counters_at():
        """The program's own counters, named as the metrics they feed."""
        return {
            "wrappers.trace_hits_per_op": image.trace_hits,
            "wrappers.deopts_per_op": image.deopts,
            "wrappers.table_calls_per_op": image.table_calls,
            "wrappers.fallback_calls_per_op": image.fallback_calls,
            "memory.resolves_per_op": space.resolve_count,
            "memory.searches_per_op": space.search_count,
            "memory.heap_mutations_per_op": process.heap.mutations,
            "robust.memo_hits_per_op": image.memo.hits,
            "robust.memo_misses_per_op": image.memo.misses,
            "runtime.fuel_per_op": process.fuel_used,
            "telemetry.events_per_op": bus.emitted,
        }

    phase = Phase()
    delta = LayerDelta(tracer) if tracer is not None else None
    if delta is not None:
        delta.start()
    before = counters_at()
    latencies = phase.latencies_ns
    serve_one = session.serve_one
    gc.collect()
    started = clock()
    while clock() - started < seconds:
        failed = 0
        round_start = clock()
        for request in stream:
            if tracer is not None:
                tracer.begin_op()
            t0 = clock_ns()
            try:
                alive = serve_one(request)
            except Exception:  # a failed request, counted not raised
                alive = False
            latencies.append(clock_ns() - t0)
            if not alive:
                failed += 1
        phase.end_round(ROUND, clock() - round_start)
        phase.attempted += ROUND
        phase.failed += failed
        served.check(lines)
        if tracer is None and len(phase.round_rates) % SETUP_EVERY == 0:
            setups.between_rounds()
    after = counters_at()
    if delta is not None:
        delta.stop()

    if served.metrics is not None:
        bus.flush()
        served.security_problems(served.metrics)
    else:
        # the hot mix runs telemetry-off; replay one round with a sink
        # attached to prove the benign stream trips no check or guard
        sink = bus.subscribe(MetricsSink())
        served.serve_untimed(stream)
        bus.flush()
        served.security_problems(sink)
        bus.unsubscribe(sink)
    heap_problems = process.heap.check_integrity()
    if heap_problems:
        served.problems.append(f"heap integrity: {heap_problems[:3]}")

    result = {"correct": not served.problems, "problems": served.problems,
              "attempted": phase.attempted, "failed": phase.failed}
    if delta is None:
        result["metrics"] = phase.end_to_end(setups.median())
    else:
        counters = {name: after[name] - before[name] for name in after}
        result["metrics"] = per_layer(delta, phase.attempted, phase,
                                      counters)
    return result
