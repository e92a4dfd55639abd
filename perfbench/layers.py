"""Per-layer tracing from outside the program.

While a :class:`Tracer` is installed, the public entry points of each
layer (and the callbacks one layer hands another) are replaced, on
their classes or in the module that imported them, by wrappers that
record a span around every call.  Nothing in ``src/`` changes, and
uninstalling restores the original attributes, so untraced passes in
the same process run the program as shipped.

Callbacks handed to ``EventEngine.schedule`` / ``schedule_at`` are
wrapped too: each dispatch becomes a ``<layer>.dispatch`` span named
after the module that owns the callback, and the engine's queue length
is sampled at every schedule for ``core.peak_pending``.

Spans carry a name and a parent and are timed with ``perf_counter``;
they are aggregated per (name, parent name) as they close -- a packet
run makes about a million of them -- rather than stored one by one.
A span's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (span name, module, class or ``None`` for a module-level function,
#: attribute).  The span name's first component is its layer.
SPANS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("placement.place", "repro.placement.base", "PlacementManager",
     "place"),
    ("placement.remove", "repro.placement.base", "PlacementManager",
     "remove"),
    ("maxmin.recompute", "repro.maxmin", "IncrementalMaxMin", "recompute"),
    ("flowsim.run", "repro.flowsim.sim", "ClusterSim", "run"),
    # The fluid simulator's binding of the pacer's hose allocator.
    ("pacer.hose", "repro.flowsim.sim", None, "allocate_hose_rates"),
    ("core.run", "repro.core.engine", "EventEngine", "run"),
    ("shaper.submit", "repro.phynet.shaper", "VMShaper", "submit"),
    ("port.enqueue", "repro.phynet.port", "OutputPort", "enqueue"),
    ("network.transmit", "repro.phynet.network", "PacketNetwork",
     "transmit"),
    ("network.notify", "repro.phynet.network", "PacketNetwork",
     "notify_when_ready"),
    # Callbacks the network hands its ports and shapers.
    ("network.deliver", "repro.phynet.network", "PacketNetwork",
     "_deliver"),
    ("network.release", "repro.phynet.network", "PacketNetwork",
     "_shaper_release"),
    ("transport.send", "repro.phynet.transport.base", "Transport",
     "send_message"),
    ("transport.on_data", "repro.phynet.transport.base", "Transport",
     "on_data"),
    ("transport.on_ack", "repro.phynet.transport.base", "Transport",
     "on_ack"),
    # The wake-up callback a transport hands ``notify_when_ready``.
    ("transport.pump", "repro.phynet.transport.base", "Transport",
     "_pump"),
    ("service.tick", "repro.service.server", "AdmissionService", "tick"),
    ("service.submit", "repro.service.server", "AdmissionService",
     "submit_admission"),
    ("service.snapshot", "repro.service.server", "AdmissionService",
     "snapshot"),
    ("cluster.place_batch", "repro.service.cluster", "ShardedCluster",
     "place_batch"),
    ("cluster.apply_fault", "repro.service.cluster", "ShardedCluster",
     "apply_fault"),
    ("cluster.depart", "repro.service.cluster", "ShardedCluster",
     "depart"),
    ("wal.record", "repro.service.wal", "WriteAheadLog", "log_enq"),
    ("wal.record", "repro.service.wal", "WriteAheadLog", "log_done"),
    ("wal.snapshot", "repro.service.wal", "SnapshotStore", "save"),
)

#: Spans whose individual durations are kept, for percentiles.
KEEP_DURATIONS = frozenset({"placement.place", "service.submit"})

#: Module prefix -> layer of an engine callback, most specific first.
CALLBACK_OWNERS = (
    ("repro.phynet.shaper", "shaper"),
    ("repro.phynet.port", "port"),
    ("repro.phynet.network", "network"),
    ("repro.phynet.transport", "transport"),
    ("repro.phynet.apps", "apps"),
    ("repro.pacer", "pacer"),
    ("repro.mechanisms", "mechanisms"),
)


def callback_layer(callback: Callable) -> str:
    """The layer owning an engine callback, by its defining module."""
    module = getattr(getattr(callback, "__func__", callback),
                     "__module__", "") or ""
    for prefix, layer in CALLBACK_OWNERS:
        if module.startswith(prefix):
            return layer
    return "other"


class Tracer:
    """Span aggregation plus the patches that feed it."""

    def __init__(self) -> None:
        #: Open spans: [name, child seconds].  The root stands for the
        #: benchmark itself, so time outside every span is its self time.
        self._stack: List[list] = [["bench", 0.0]]
        #: (name, parent) -> [calls, total seconds, self seconds]
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        self.durations: Dict[str, List[float]] = {
            name: [] for name in KEEP_DURATIONS}
        self.counts: Dict[str, float] = {
            "placement.accepted": 0, "maxmin.flows_resolved": 0,
            "core.peak_pending": 0}
        self._saved: List[Tuple[Any, str, Any]] = []
        self._root_started = 0.0

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` with a span named ``name`` around every call;
        ``after(args, result)`` runs inside the span when ``fn``
        returns."""
        stack = self._stack
        spans = self.spans
        kept = self.durations.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                key = (name, parent[0])
                agg = spans.get(key)
                if agg is None:
                    agg = spans[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if kept is not None:
                    kept.append(elapsed)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Patch every layer entry point; pair with :meth:`uninstall`."""
        counts = self.counts

        def accepted(_args, result):
            if result is not None:
                counts["placement.accepted"] += 1

        for name, module_name, class_name, attr in SPANS:
            module = importlib.import_module(module_name)
            owner = (module if class_name is None
                     else getattr(module, class_name))
            original = owner.__dict__[attr]
            if name == "maxmin.recompute":
                traced = self._wrap_recompute(original)
            else:
                traced = self.wrap(name, original, accepted
                                   if name == "placement.place" else None)
            self._patch(owner, attr, traced)
        self._install_engine()
        self._root_started = time.perf_counter()

    def _wrap_recompute(self, original: Callable) -> Callable:
        counts = self.counts

        def recompute(solver):
            before = solver.affected_flow_count
            try:
                return original(solver)
            finally:
                counts["maxmin.flows_resolved"] += (
                    solver.affected_flow_count - before)

        return self.wrap("maxmin.recompute", recompute)

    def _install_engine(self) -> None:
        engine_cls = importlib.import_module("repro.core.engine").EventEngine
        counts = self.counts

        def traced(original: Callable) -> Callable:
            def schedule(engine, when, callback, *args):
                handle = original(engine, when, self.wrap(
                    f"{callback_layer(callback)}.dispatch", callback),
                    *args)
                pending = engine.pending_events
                if pending > counts["core.peak_pending"]:
                    counts["core.peak_pending"] = pending
                return handle

            return schedule

        for attr in ("schedule", "schedule_at"):
            self._patch(engine_cls, attr, traced(engine_cls.__dict__[attr]))

    def uninstall(self) -> None:
        """Restore every patched attribute and close the root span."""
        elapsed = time.perf_counter() - self._root_started
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.spans[("bench", "")] = [1, elapsed,
                                     elapsed - self._stack[0][1]]

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(sum(agg[0] for (span, _), agg in self.spans.items()
                       if span == name))

    def self_s(self, prefix: str) -> float:
        """Self seconds of every span named ``prefix`` or under it."""
        return sum(agg[2] for (span, _), agg in self.spans.items()
                   if span == prefix or span.startswith(prefix + "."))

    def table(self) -> List[Tuple[str, str, int, float, float]]:
        """(span, parent, calls, total s, self s), by self time."""
        rows = [(span, parent, int(agg[0]), agg[1], agg[2])
                for (span, parent), agg in self.spans.items()]
        return sorted(rows, key=lambda row: -row[4])
