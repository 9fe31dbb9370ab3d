"""Span tracing from outside the program, for the traced (--trace 1) mode.

The tracer patches the public entry points of each layer at class level
(or per registry entry, for libc bodies) before any program object is
built, so closures the program compiles at build time capture the timed
versions.  A span is opened around every call of a patched function; a
layer's self time is the span's duration minus the time its child spans
cover.  Each thread keeps its own span stack, so the ingest server's
threads and the shipper thread do not corrupt each other's spans.

Raw span records ``(op, layer, function, start_ns, end_ns, depth)`` are
kept in memory for the first ``keep_ops`` operations only, and written
out when the run ends; per-layer totals cover every operation.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List


class Tracer:
    """Per-layer self time, inclusive time, call counts and span records.

    Each span's own bookkeeping runs inside its parent's interval, so
    :meth:`calibrate` measures that cost once and every parent's self
    time is charged it once less per child span.
    """

    def __init__(self, keep_ops: int = 64):
        self.keep_ops = keep_ops
        self.op = 0
        self.records: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[dict] = []
        #: count-only hooks (no span): name -> calls
        self.counts: Dict[str, int] = defaultdict(int)
        #: measured cost of one span's bookkeeping, charged to no layer
        self.span_cost_ns = 0

    def _new_state(self) -> dict:
        """This thread's span stack and per-layer accumulators."""
        state = {"stack": []}
        self._local.state = state
        with self._lock:
            self._states.append(state)
        return state

    def begin_op(self) -> None:
        """Mark the start of the next operation (for span records)."""
        self.op += 1

    # -- wrapping ------------------------------------------------------

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """A timed stand-in for ``fn`` that records one span per call.

        A layer's accumulator is ``[self_ns, total_ns, calls, depth]``;
        ``total_ns`` counts only the outermost span of a layer, so it is
        the layer's inclusive time.
        """
        clock = time.perf_counter_ns
        tracer = self
        local = self._local
        records = self.records
        name = getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = tracer._new_state()
            stack = state["stack"]
            acc = state.get(layer)
            if acc is None:
                acc = state[layer] = [0, 0, 0, 0]
            frame = [0, 0]
            stack.append(frame)
            acc[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                acc[3] -= 1
                acc[0] += duration - frame[0] - frame[1] * tracer.span_cost_ns
                acc[2] += 1
                if not acc[3]:
                    acc[1] += duration
                if stack:
                    parent = stack[-1]
                    parent[0] += duration
                    parent[1] += 1
                if 0 < tracer.op <= tracer.keep_ops:
                    records.append(
                        (tracer.op, layer, name, start, end, len(stack)))

        return timed

    def calibrate(self, rounds: int = 20000) -> None:
        """Measure one span's bookkeeping cost outside the callee."""

        def noop():
            return None

        timed = self.wrap("calibration", noop)
        clock = time.perf_counter_ns
        samples = []
        for _ in range(5):
            start = clock()
            for _ in range(rounds):
                noop()
            raw = clock() - start
            start = clock()
            for _ in range(rounds):
                timed()
            wrapped = clock() - start
            samples.append((wrapped - raw) // rounds)
        self.span_cost_ns = sorted(samples)[len(samples) // 2]
        with self._lock:
            for state in self._states:
                state.pop("calibration", None)

    def counter(self, key: str, fn: Callable) -> Callable:
        """A stand-in for ``fn`` that only counts its calls."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def patch_method(self, cls, attr: str, layer: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(layer, raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self.wrap(layer, raw.__func__))
        else:
            patched = self.wrap(layer, raw)
        setattr(cls, attr, patched)

    def patch_count(self, cls, attr: str, key: str) -> None:
        setattr(cls, attr, self.counter(key, cls.__dict__[attr]))

    def patch_public(self, cls, layer: str, skip=()) -> None:
        """Patch every public plain method defined on ``cls``."""
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or attr in skip:
                continue
            if inspect.isfunction(value):
                self.patch_method(cls, attr, layer)

    # -- results -------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Merged per-layer ``self``/``total`` ns and ``calls``."""
        merged = {"self": defaultdict(int), "total": defaultdict(int),
                  "calls": defaultdict(int)}
        with self._lock:
            for state in self._states:
                for layer, acc in list(state.items()):
                    if layer == "stack":
                        continue
                    merged["self"][layer] += acc[0]
                    merged["total"][layer] += acc[1]
                    merged["calls"][layer] += acc[2]
        return merged

    def write(self, path) -> None:
        """Write the kept span records and the layer totals as JSON."""
        totals = self.totals()
        payload = {
            "fields": ["op", "layer", "function", "start_ns", "end_ns",
                       "depth"],
            "spans": self.records,
            "layers": {key: dict(value) for key, value in totals.items()},
            "counts": dict(self.counts),
            "span_cost_ns": self.span_cost_ns,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(tracer: Tracer) -> None:
    """Patch every layer's public entry points; call before any set-up."""
    tracer.calibrate()
    from repro.collection.fabric import FabricClient
    from repro.collection.fleet import FleetAggregator
    from repro.collection.server import CollectionStore
    from repro.collection.spool import SpoolWriter
    from repro.ftypes.context import ProbeContext
    from repro.ftypes.values import TestValue
    from repro.memory.heap import HeapAllocator
    from repro.memory.model import AddressSpace
    from repro.memory.stack import CallStack
    from repro.profiling.xmllog import ProfileDocument
    from repro.runtime.process import SimProcess
    from repro.runtime.sandbox import Sandbox
    from repro.telemetry.bus import EventBus
    from repro.wrappers.fastpath import FusedImage

    tracer.patch_public(AddressSpace, "memory")
    tracer.patch_public(HeapAllocator, "memory", skip=("check_integrity",))
    tracer.patch_method(HeapAllocator, "check_integrity", "integrity")
    tracer.patch_public(CallStack, "memory")
    tracer.patch_method(FusedImage, "call", "wrappers")
    for attr in ("emit", "emit_many", "flush"):
        tracer.patch_method(EventBus, attr, "telemetry")
    tracer.patch_count(SimProcess, "consume", "fuel_calls")
    tracer.patch_count(SimProcess, "consume_metered", "fuel_calls")
    tracer.patch_method(SimProcess, "__init__", "process")
    tracer.patch_method(Sandbox, "run", "runtime")
    tracer.patch_method(ProbeContext, "build_goldens", "ftypes")
    tracer.patch_method(TestValue, "materialize", "ftypes")
    tracer.patch_method(ProfileDocument, "from_xml", "parse")
    tracer.patch_method(CollectionStore, "submit_parsed", "store")
    tracer.patch_method(FleetAggregator, "ingest", "fleet")
    tracer.patch_method(SpoolWriter, "append", "spool")
    tracer.patch_method(SpoolWriter, "commit", "spool")
    tracer.patch_count(SpoolWriter, "commit", "commits")
    _patch_credit_waits(tracer, FabricClient)


def _patch_credit_waits(tracer: Tracer, client_cls) -> None:
    """Count the acks ``ship`` drains before its batch fits the window.

    ``FabricClient`` has no counter for this.  An ack read while the
    shipping batch is not yet in flight (its sequence number is not
    among the un-acked frames) is read by the credit-pacing loop; acks
    read after the send, or by ``flush``, are not counted.
    """
    raw = client_cls.__dict__["_read_ack"]
    counts = tracer.counts

    @functools.wraps(raw)
    def read_ack(self):
        if all(seq != self._seq for seq, _, _ in self._unacked):
            counts["credit_waits"] += 1
        return raw(self)

    client_cls._read_ack = read_ack


def instrument_registry(tracer: Tracer, registry) -> None:
    """Time every libc body of ``registry`` (before libraries are built)."""
    for function in registry:
        function.impl = tracer.wrap("libc", function.impl)


def instrument_app(tracer: Tracer, app):
    """A copy of a server app whose request handler is timed."""
    return dataclasses.replace(app, handle=tracer.wrap("apps", app.handle))
