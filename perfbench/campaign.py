"""campaign: the full serial fault-injection campaign, probe by probe.

Every function with a parameter is swept over its test-value dictionary
(1644 probes over 123 functions), each probe in a fresh SimProcess with
the default fuel budget and no probe cache.  The seed permutes the probe
order; a run repeats whole passes over the same permutation.
"""

from __future__ import annotations

import gc
import random
from typing import List, Optional

from measure import LayerDelta, Phase, Setups, clock, clock_ns, per_layer
from oracles import check_campaign
import tracing

from repro.injection import Campaign
from repro.libc import standard_registry
from repro.manpages import load_corpus


def build(seed: int, tracer: Optional[tracing.Tracer]):
    """Registry, man pages and the seed-permuted probe plan."""
    registry = standard_registry()
    if tracer is not None:
        tracing.instrument_registry(tracer, registry)
    campaign = Campaign(registry, manpages=load_corpus())
    plan = []
    for name in registry.names():
        if registry[name].prototype.params:
            plan.extend(campaign.probe_plan(name))
    random.Random(seed).shuffle(plan)
    return campaign, plan


def run(workload: str, seed: int, seconds: float,
        tracer: Optional[tracing.Tracer]) -> dict:
    setups = Setups(lambda: build(seed, tracer))
    campaign, plan = setups.timed()
    keys = [(probe.function, probe.param_name, probe.value_label)
            for probe, _ in plan]
    execute = campaign.execute_probe
    phase = Phase()
    latencies = phase.latencies_ns
    delta = LayerDelta(tracer) if tracer is not None else None
    if delta is not None:
        delta.start()
    problems: List[str] = []
    reference = None
    fuel = 0
    gc.collect()
    started = clock()
    while clock() - started < seconds:
        outcomes = []
        pass_start = clock()
        for probe, value in plan:
            if tracer is not None:
                tracer.begin_op()
            t0 = clock_ns()
            execution = execute(probe, value)
            latencies.append(clock_ns() - t0)
            # keep the verdict, not the execution: its exception can
            # hold the probe's whole simulated process alive
            result = execution.result
            outcomes.append(
                (result.outcome.value, result.fuel_used, "")
                if result is not None else (None, 0, execution.setup_error))
        phase.end_round(len(plan), clock() - pass_start)
        if tracer is None:
            setups.between_rounds()
        phase.attempted += len(plan)
        phase.failed += sum(1 for _, _, error in outcomes if error)
        # a HANG's charge can exceed the budget by a single huge
        # consume(); a probe cannot burn more than budget + 1 before it
        # is stopped, so that is what it is charged here
        fuel += sum(min(spent, campaign.fuel + 1) for _, spent, _ in outcomes)
        if reference is None:
            reference = outcomes
            problems.extend(check_campaign(keys, outcomes, campaign.fuel))
        elif outcomes != reference:
            problems.append("a later pass gave different verdicts")
    if delta is not None:
        delta.stop()

    result = {"correct": not problems, "problems": problems,
              "attempted": phase.attempted, "failed": phase.failed}
    if delta is None:
        result["metrics"] = phase.end_to_end(setups.median())
    else:
        result["metrics"] = per_layer(delta, phase.attempted, phase,
                                      {"runtime.fuel_per_op": fuel})
    return result
