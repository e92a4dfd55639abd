"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fluid-silo-8k --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` repeats set-up + run passes of the workload for
``--seconds`` of wall time (at least three passes) and reports the
end-to-end metrics named in ``BENCHMARK.json``.  Each run is split into
segments that do the same work in every pass (see ``workloads.py``);
``run_s`` sums each segment's fastest pass, so a spell of contention
from other tenants of the host costs only the segments it overlapped
in every pass; ``setup_s`` is the fastest of many set-ups.  A reference kernel timed between passes
(``hostspeed.py``) scales ``setup_s`` and ``run_s`` to the speed of a
quiet host, for the slow spells that outlast a run.  ``--trace 1``
alternates untraced and traced passes (at least two of each) and
reports the per-layer metrics, including the tracing overhead.  Every
pass, traced or not, goes through the correctness gate: its simulated
outputs must equal the pinned outputs of its input variant
(``pins.json``), satisfy the workload's invariants, and equal every
other pass.  In a traced run the per-layer counts must also repeat
exactly between the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when the gate passed, 1 when it failed and 2 on a usage error --
including a checkout without the program's sources.  See README.md for
the workloads, the layer map and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import hostspeed
from layers import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
#: Scratch space for the service's WAL and snapshots; removed on exit.
WORK = HERE / ".work"

MIN_PASSES = 3
MIN_TRACED = 2
#: Repetitions of the reference kernel after every pass (about 8 ms
#: each on a quiet host).
KERNEL_REPS = 10

#: Per-layer metrics that are timings (everything else is a count or
#: a ratio of counts and must repeat exactly between traced passes).
_TIMED_SUFFIXES = ("self_s", "p99_us", "_ms")
_UNREPEATABLE = ("host.", "trace.")


@dataclass
class Pass:
    """One set-up + run of the workload."""

    traced: bool
    setup_s: float
    run_s: float
    #: Wall seconds of each segment of the run, in order.
    segments: List[float]
    outcome: Any
    tracer: Any = None
    #: Set-ups timed after the pass and torn down unrun.
    spare_setups: List[float] = field(default_factory=list)
    #: Reference-kernel times taken after the pass.
    kernel_s: List[float] = field(default_factory=list)


def _percentile(values: List[float], q: float) -> float:
    from repro.analysis.stats import percentile
    return percentile(values, q) if values else 0.0


def one_pass(workload, variant: int, traced: bool) -> Pass:
    """Set up and run once; a traced pass patches the layers first, so
    callbacks bound during set-up are traced too."""
    gc.collect()
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    state: Dict[str, Any] = {}
    try:
        start = time.perf_counter()
        state = workload.setup(variant)
        set_up = time.perf_counter()
        outcome = workload.run(state)
        done = time.perf_counter()
        marks = [set_up, *state["stamps"], done]
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown(state)
    segments = [b - a for a, b in zip(marks, marks[1:])]
    return Pass(traced, set_up - start, done - set_up, segments, outcome,
                tracer)


def fastest_run(passes: List[Pass]) -> float:
    """Run time with each segment at its fastest pass.

    Contention from the host's other tenants only ever adds time, and
    it comes in spells of about a second, so the sum of per-segment
    minima is a steadier estimate of the run's own cost than any one
    pass (or the median pass) -- provided every segment had at least
    one pass outside a spell.
    """
    return sum(min(times) for times in zip(*(p.segments
                                                for p in passes)))


def run_passes(workload, variant: int, seconds: float,
               trace: bool) -> List[Pass]:
    """Passes until ``seconds`` have elapsed and the minimum counts are
    met; a traced run alternates untraced and traced passes.  Each
    untraced pass is followed by the workload's spare set-ups, so the
    set-up times are sampled across the whole run, and every pass by
    the reference kernel."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(one_pass(workload, variant, traced))
        if not traced:
            passes[-1].spare_setups = spare_setups(
                workload, variant, workload.spare_setups)
        passes[-1].kernel_s = hostspeed.sample(KERNEL_REPS)
        plain = sum(1 for p in passes if not p.traced)
        enough = (plain >= MIN_TRACED and len(passes) - plain >= MIN_TRACED
                  if trace else plain >= MIN_PASSES)
        if enough and time.perf_counter() - start >= seconds:
            return passes


def spare_setups(workload, variant: int, count: int) -> List[float]:
    """Set-up times of ``count`` set-ups that are torn down unrun."""
    times = []
    for _ in range(count):
        gc.collect()
        state: Dict[str, Any] = {}
        try:
            start = time.perf_counter()
            state = workload.setup(variant)
            times.append(time.perf_counter() - start)
        finally:
            workload.teardown(state)
    return times


def gate(workload, passes: List[Pass], pinned: Optional[dict]
         ) -> List[str]:
    """Every reason the run's outputs are wrong; empty when correct."""
    errors = []
    if pinned is None:
        errors.append("no pinned outputs for this input variant")
    for i, p in enumerate(passes):
        kind = "traced" if p.traced else "untraced"
        outputs = json.loads(json.dumps(p.outcome.outputs))
        if pinned is not None and outputs != pinned:
            diff = sorted(k for k in set(outputs) | set(pinned)
                          if outputs.get(k) != pinned.get(k))
            errors.append(f"pass {i} ({kind}): outputs differ from the "
                          f"pins in {diff}")
        if outputs != json.loads(json.dumps(passes[0].outcome.outputs)):
            errors.append(f"pass {i} ({kind}): outputs differ from "
                          f"pass 0")
        if len(p.segments) != len(passes[0].segments):
            errors.append(f"pass {i} ({kind}): {len(p.segments)} "
                          f"segments, pass 0 had "
                          f"{len(passes[0].segments)}")
        errors.extend(f"pass {i} ({kind}): {v}"
                      for v in workload.violations(outputs))
    return errors


def slowdown(passes: List[Pass]) -> float:
    """The host's slowdown over the run, from its fastest kernel."""
    return hostspeed.slowdown([t for p in passes for t in p.kernel_s])


def raw_times(passes: List[Pass]) -> Dict[str, float]:
    """Set-up and run seconds as measured, before scaling.

    A set-up lasts 2-150 ms, far less than a spell of contention, so it
    falls either wholly inside a spell or wholly outside; the fastest
    of the run's set-ups is the one outside.  (Their median moved by up
    to 37% between two sets of runs of the same code, with the share of
    the run the host spent in spells.)
    """
    setups = [s for p in passes for s in [p.setup_s, *p.spare_setups]]
    return {"setup_s": min(setups), "run_s": fastest_run(passes)}


def end_to_end(passes: List[Pass]) -> Dict[str, float]:
    """The times in seconds of a quiet host: as measured, over the
    host's slowdown during the run."""
    raw, slow = raw_times(passes), slowdown(passes)
    run_s = raw["run_s"] / slow
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": raw["setup_s"] / slow,
        "run_s": run_s,
        "work_per_s": passes[0].outcome.work / run_s,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def layer_metrics(p: Pass) -> Dict[str, float]:
    """The per-layer table of one traced pass."""
    tracer, counts = p.tracer, p.outcome.counts
    calls, self_s = tracer.calls, tracer.self_s
    place = calls("placement.place")
    recomputes = calls("maxmin.recompute")
    tx = counts.get("port.tx_packets", 0)
    metrics = {
        "placement.place.calls": place,
        "placement.place.self_s": self_s("placement.place"),
        "placement.place.p99_us": 1e6 * _percentile(
            tracer.durations["placement.place"], 99.0),
        "placement.accept_ratio": (tracer.counts["placement.accepted"]
                                   / place if place else 0.0),
        "placement.remove.calls": calls("placement.remove"),
        "placement.remove.self_s": self_s("placement.remove"),
        "maxmin.recompute.calls": recomputes,
        "maxmin.recompute.self_s": self_s("maxmin.recompute"),
        "maxmin.flows_resolved": tracer.counts["maxmin.flows_resolved"],
        "maxmin.flows_per_recompute": (
            tracer.counts["maxmin.flows_resolved"] / recomputes
            if recomputes else 0.0),
        "flowsim.self_s": self_s("flowsim"),
        "flowsim.rate_updates": counts.get("flowsim.rate_updates", 0),
        "flowsim.peak_flows": counts.get("flowsim.peak_flows", 0),
        "pacer.hose.calls": calls("pacer.hose"),
        "pacer.hose.self_s": self_s("pacer.hose"),
        "core.events": sum(int(agg[0]) for (span, _), agg
                           in tracer.spans.items()
                           if span.endswith(".dispatch")),
        "core.self_s": self_s("core"),
        "core.peak_pending": tracer.counts["core.peak_pending"],
        "shaper.submit.calls": calls("shaper.submit"),
        "shaper.dispatch.calls": calls("shaper.dispatch"),
        "shaper.self_s": self_s("shaper"),
        "port.enqueue.calls": calls("port.enqueue"),
        "port.tx_packets": tx,
        "port.self_s": self_s("port"),
        "port.drops": counts.get("port.drops", 0),
        "port.pushouts": counts.get("port.pushouts", 0),
        "port.max_queue_bytes": counts.get("port.max_queue_bytes", 0),
        "network.transmit.calls": calls("network.transmit"),
        "network.notify.calls": calls("network.notify"),
        "network.notify_per_tx": (calls("network.notify") / tx
                                  if tx else 0.0),
        "network.self_s": self_s("network"),
        "transport.on_data.calls": calls("transport.on_data"),
        "transport.on_ack.calls": calls("transport.on_ack"),
        "transport.rto_events": counts.get("transport.rto_events", 0),
        "transport.self_s": self_s("transport"),
        "apps.self_s": self_s("apps"),
        "packet.msg_p50_us": counts.get("packet.msg_p50_us", 0.0),
        "service.tick.calls": calls("service.tick"),
        "service.tick.self_s": self_s("service.tick"),
        "service.submit.p99_us": 1e6 * _percentile(
            tracer.durations["service.submit"], 99.0),
        "service.snapshot.self_s": self_s("service.snapshot"),
        "service.max_queue_depth": counts.get("service.max_queue_depth",
                                              0),
        "cluster.place_batch.self_s": self_s("cluster.place_batch"),
        "cluster.apply_fault.self_s": self_s("cluster.apply_fault"),
        "cluster.depart.self_s": self_s("cluster.depart"),
        "wal.records": calls("wal.record"),
        "wal.bytes": counts.get("wal.bytes", 0),
        "wal.self_s": self_s("wal"),
        "wal.snapshot.calls": calls("wal.snapshot"),
        "wal.snapshot.self_s": self_s("wal.snapshot"),
        "bench.self_s": self_s("bench"),
    }
    return {key: float(value) for key, value in metrics.items()}


def _repeats(key: str) -> bool:
    return not (key.endswith(_TIMED_SUFFIXES)
                or key.startswith(_UNREPEATABLE))


def per_layer(passes: List[Pass], errors: List[str]) -> Dict[str, float]:
    """Medians over the traced passes, plus what the untraced passes
    measure (tick latency, tracing overhead)."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    tables = [layer_metrics(p) for p in traced]
    for i, table in enumerate(tables[1:], start=1):
        moved = sorted(k for k in table
                       if _repeats(k) and table[k] != tables[0][k])
        if moved:
            errors.append(f"traced pass {i}: counts differ from the "
                          f"first traced pass in {moved}")
    metrics = {key: statistics.median(t[key] for t in tables)
               for key in tables[0]}
    ticks = [ms for p in plain for ms in p.outcome.tick_ms]
    attempted = sum(p.outcome.attempted for p in plain)
    traced_run = fastest_run(traced)
    metrics.update({
        "service.ticks": float(len(ticks)),
        "service.tick_p50_ms": _percentile(ticks, 50.0),
        "service.tick_p99_ms": _percentile(ticks, 99.0),
        "failed_fraction": (sum(p.outcome.failed for p in plain)
                            / attempted),
        "trace.run_s": traced_run,
        "trace.overhead": traced_run / fastest_run(plain),
        "host.slowdown": slowdown(passes),
    })
    return metrics


def host_record(started) -> Dict[str, Any]:
    """What the host looked like: the run's CPU time beside its wall
    time since ``started`` (both clocks), the CPUs it may use, and the
    interpreter and numpy."""
    import numpy
    wall = time.perf_counter() - started[0]
    cpu = time.process_time() - started[1]
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "wall_s": wall,
        "cpu_s": cpu,
        "cpu_over_wall": cpu / wall,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def print_table(passes: List[Pass]) -> None:
    """Span table of the first traced pass, by self time."""
    tracer = next(p.tracer for p in passes if p.traced)
    rows = tracer.table()
    total = sum(row[4] for row in rows)
    print(f"{'span':24s} {'parent':20s} {'calls':>9s} {'total_s':>9s} "
          f"{'self_s':>9s} {'self%':>6s}")
    for span, parent, n, tot, own in rows:
        print(f"{span:24s} {parent:20s} {n:9d} {tot:9.3f} {own:9.3f} "
              f"{100.0 * own / total:6.1f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads
    registry = workloads.build(WORK)
    if args.workload not in registry:
        print(f"error: unknown workload {args.workload!r}; pick from "
              f"{sorted(registry)}", file=sys.stderr)
        return 2
    workload = registry[args.workload]
    variant = args.seed % workload.variants
    pinned = json.loads(PINS.read_text()).get(args.workload, {}).get(
        str(variant))
    started = time.perf_counter(), time.process_time()
    WORK.mkdir(exist_ok=True)
    try:
        passes = run_passes(workload, variant, args.seconds,
                            bool(args.trace))
        errors = gate(workload, passes, pinned)
        if args.trace:
            values = per_layer(passes, errors)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(passes)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    host = host_record(started)
    values["host.cpus"] = float(host["cpus"])
    values["host.cpu_over_wall"] = host["cpu_over_wall"]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "variant": variant,
                      "passes": [[int(p.traced), p.setup_s, p.run_s]
                                 for p in passes],
                      "work_unit": workload.work_unit,
                      "raw": raw_times(passes),
                      "slowdown": slowdown(passes),
                      "outputs": passes[0].outcome.outputs,
                      "host": host}))
    if args.trace:
        print_table(passes)
    for error in errors:
        print(f"gate: {error}", file=sys.stderr)
    attempted = sum(p.outcome.attempted for p in passes)
    failed = (attempted if errors
              else sum(p.outcome.failed for p in passes))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
