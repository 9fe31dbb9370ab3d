"""ingest: an IngestServer fed by two FabricClient connections.

Each round starts a fresh server (its defaults of 4 shards and a
write-ahead spool, in a directory under the checkout, with fsync off),
and one shipper thread drives both connections in lock step: it sends
the next sequenced 8-document batch on each, then waits for each ack.
A batch holds one application's documents, as one shipper process sends
them; the 64 applications' documents are profiled runs of the bundled
server apps, chosen by the seed.  The server is stopped after each
round so memory and the spool stay bounded; its start-up until it
accepts connections is the set-up time.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
from collections import Counter
from typing import List, Optional

from measure import LayerDelta, Phase, clock, clock_ns, per_layer
from oracles import ingest_expectation
import tracing

from repro.apps import SERVER_APPS, run_app
from repro.collection import FabricClient, IngestServer
from repro.collection.fabric import (CollectionProtocolError,
                                     replay_documents)
from repro.core import Healers
from repro.profiling import ProfileDocument
from repro.serving import LoadGenerator
from repro.serving.loadgen import MIXES

APPLICATIONS = 64
BATCH = 8
CONNECTIONS = 2
#: times each connection ships its half of the applications per round:
#: 1024 batches, 8192 documents, about 1.5 s
PASSES = 16
#: requests one profiled run serves, drawn per document
REQUESTS = (8, 40)
SPOOL_ROOT = ".perfbench_tmp"


def make_documents(seed: int):
    """Per application, BATCH documents: (xml, application, calls).

    Every document is what the program itself writes at process exit:
    a bundled server app (kvd, httpd or tmpld) runs under the
    ``profiling`` wrapper preset on a ``LoadGenerator`` stream, and
    ``ProfileDocument.from_state`` renders its ``WrapperState``.  The
    seed picks each application's app and mix and each document's
    stream; the exectime fields are the wrapper's own clock readings.
    """
    rng = random.Random(seed)
    healers = Healers()
    built = healers.preload("profiling")
    batches = []
    for index in range(APPLICATIONS):
        app = rng.choice(SERVER_APPS)
        mix = rng.choice(MIXES)
        application = f"{app.name}-{seed}-{index:02d}"
        batch = []
        for _ in range(BATCH):
            generator = LoadGenerator(app.name, mix=mix,
                                      seed=rng.randrange(1 << 30))
            requests = generator.warmup + generator.stream(
                rng.randint(*REQUESTS))
            built.state.reset()
            outcome = run_app(app, healers.linker, stdin=b"".join(
                request.line + b"\n" for request in requests))
            state = built.state
            if outcome.status != 0 or state.violations or \
                    state.security_events:
                raise RuntimeError(f"profiled {app.name} run failed: "
                                   f"{outcome.status} {outcome.exception}")
            xml = ProfileDocument.from_state(
                state, application, built.spec.name).to_xml()
            batch.append((xml, application, dict(state.calls)))
        batches.append(batch)
    healers.clear_preloads()
    rng.shuffle(batches)
    return batches


class Round:
    """One server lifetime: start, ship from both connections, verify."""

    def __init__(self, spool_dir: str):
        shutil.rmtree(spool_dir, ignore_errors=True)
        os.makedirs(spool_dir)
        self.spool_dir = spool_dir
        start = clock()
        # fsync off: with it, whole runs moved by a quarter with the
        # shared host's disk; every record is still written and committed
        self.server = IngestServer(spool_dir=spool_dir, fsync=False).start()
        self.setup_s = clock() - start

    def ship(self, lanes, phase: Phase, tracer) -> float:
        """Ship every lane on its own connection; the round's seconds.

        One thread sends a batch on every connection, then reads each
        connection's ack in turn, so both connections have a batch in
        flight at once and no shipper thread competes with the server's
        threads.  A batch's latency runs from its send to its ack read.
        """
        clients = [FabricClient(self.server.address, shipper=f"lane-{i}")
                   for i in range(len(lanes))]
        samples = phase.latencies_ns
        start = clock()
        for group in zip(*lanes):
            sent = []
            for client, texts in zip(clients, group):
                if tracer is not None:
                    tracer.begin_op()
                t0 = clock_ns()
                try:
                    client.ship(texts, wait=False)
                except (OSError, CollectionProtocolError):
                    phase.failed += len(texts)
                    continue
                sent.append((client, texts, t0))
            for client, texts, t0 in sent:
                try:
                    client.flush()
                except (OSError, CollectionProtocolError):
                    phase.failed += len(texts)
                    continue
                samples.append(clock_ns() - t0)
        elapsed = clock() - start
        self.acked = sum(client.acked_documents for client in clients)
        for client in clients:
            client.close()
        return elapsed

    def verify(self, shipped: List[tuple], frames: int) -> List[str]:
        """Acked, stored and replayed documents against what was shipped."""
        server = self.server
        problems = []
        expected_xml = Counter(xml for xml, _, _ in shipped)
        calls, apps = ingest_expectation(
            (application, function_calls)
            for _, application, function_calls in shipped)
        stored = Counter(doc.raw_xml for doc in server.store.documents)
        if self.acked != len(shipped):
            problems.append(f"{self.acked} of {len(shipped)} acked")
        if stored != expected_xml:
            problems.append("stored documents differ from those shipped")
        if server.store.aggregate_calls() != dict(calls):
            problems.append("aggregate_calls differs from shipped sums")
        fleet = server.fleet()
        fleet_calls = Counter()
        for (_, function, _), cell in fleet.cells.items():
            fleet_calls[function] += cell.calls
        if fleet_calls != calls or fleet.documents != len(shipped):
            problems.append("fleet rollup differs from shipped sums")
        if fleet.applications != set(apps):
            problems.append("fleet applications differ from shipped")
        stats = server.stats()
        if stats["frames"] != frames or stats["errors"] or stats[
                "duplicates"]:
            problems.append(f"server stats {stats}")
        return problems

    def verify_spool(self, shipped: List[tuple]) -> List[str]:
        """After stop: the spool replays exactly the shipped documents."""
        replayed, _, _ = replay_documents(self.spool_dir,
                                          self.server.shards)
        if (Counter(xml.decode("utf-8") for _, _, xml in replayed)
                != Counter(xml for xml, _, _ in shipped)):
            return ["spool replay differs from documents shipped"]
        return []


def run(workload: str, seed: int, seconds: float,
        tracer: Optional[tracing.Tracer]) -> dict:
    # one CPU for every thread of the run: spread over both, the rate
    # swung between 3k and 5.5k documents/s with the host's load on the
    # second CPU; pinned, it held steady and ran faster
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    batches = make_documents(seed)
    # lane i ships every CONNECTIONS-th application batch, PASSES times
    lanes = [[[xml for xml, _, _ in batch]
              for batch in batches[index::CONNECTIONS]] * PASSES
             for index in range(CONNECTIONS)]
    shipped = [doc for batch in batches for doc in batch] * PASSES
    frames = sum(len(lane) for lane in lanes)
    spool_dir = os.path.join(SPOOL_ROOT, f"spool-{os.getpid()}")
    phase = Phase()
    setups = []
    problems: List[str] = []
    delta = LayerDelta(tracer) if tracer is not None else None
    frames_seen = 0
    started = clock()
    try:
        while clock() - started < seconds:
            gc.collect()
            current = Round(spool_dir)
            setups.append(current.setup_s)
            try:
                if delta is not None:
                    delta.start()
                elapsed = current.ship(lanes, phase, tracer)
                if delta is not None:
                    delta.stop()
                    frames_seen += current.server.stats()["frames"]
                phase.end_round(current.acked, elapsed)
                phase.attempted += len(shipped)
                problems.extend(current.verify(shipped, frames))
            finally:
                current.server.stop()
            problems.extend(current.verify_spool(shipped))
            # let the next round's gc.collect() reclaim this server and
            # its stores, so its cycles are not scanned inside the round
            current = None
    finally:
        shutil.rmtree(spool_dir, ignore_errors=True)
        try:
            os.rmdir(SPOOL_ROOT)
        except OSError:  # another run's spool is still there
            pass

    result = {"correct": not problems, "problems": problems,
              "attempted": phase.attempted, "failed": phase.failed}
    if tracer is None:
        result["metrics"] = phase.end_to_end(statistics.median(setups))
    else:
        result["metrics"] = per_layer(
            delta, phase.attempted, phase,
            {"collection.frames_per_op": frames_seen})
    return result
