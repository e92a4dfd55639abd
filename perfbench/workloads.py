"""The benchmark's four workloads, each split into set-up and run.

Every workload is a batch or closed-loop job on one thread.  ``setup``
builds everything the run needs (topology, managers, network or
service, and the generated inputs); ``run`` is the timed part and
returns a :class:`Outcome`; ``teardown`` releases what ``setup``
opened.  ``outputs`` in the outcome are the simulated results the
correctness gate compares against ``pins.json`` -- they are pure
functions of the input variant, so every pass of a run, traced or not,
must reproduce them exactly.

``run`` also appends ``perf_counter`` stamps to ``state["stamps"]`` at
points fixed by the input (every so many arrivals, simulated-time
slices, service ticks).  They split a run into segments that do the
same work in every pass of a variant, so ``run.py`` can take each
segment's fastest pass.  ``spare_setups`` is how many more set-ups
``run.py`` times (and tears down unrun) after each untraced pass:
more for the workloads whose set-up is short beside their run.

The workloads call only the public API of ``src/repro``; where a
campaign cell bundles set-up and run in one function, the body is
restated here so the two can be timed apart (``pin.py`` checks that
the restated form gives the campaign cell's own results).
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro import units
from repro.analysis.stats import percentile
from repro.campaign.scenarios import (
    CLASS_A_EPOCH, CLASS_A_GUARANTEE, CLASS_A_MESSAGE, CLASS_B_GUARANTEE,
    FIG16_SCALE_SHAPES, MECHANISM_WORKLOADS, N_CLASS_A, N_CLASS_B,
    VMS_PER_TENANT_A, VMS_PER_TENANT_B)
from repro.core.tenant import TenantClass, TenantRequest
from repro.faults import FaultSchedule
from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
from repro.mechanisms import get_mechanism
from repro.phynet import MetricsCollector
from repro.phynet.apps import BulkApp, EpochBurstApp
from repro.placement import LocalityPlacementManager, SiloPlacementManager
from repro.service import AdmissionService, ClosedLoopLoadGen
from repro.topology import TreeTopology
from repro.workloads import Fixed
from repro.workloads.patterns import all_to_all_pairs

#: ``--seed`` selects one of a workload's pinned input variants
#: (``seed % variants``); variant ``v`` runs workload seed ``base + v``.
N_VARIANTS = 8
#: Tenant arrivals per segment of a fluid run.
ARRIVALS_PER_SEGMENT = 50
#: Simulated-time slices of a packet run.
PACKET_SEGMENTS = 30


@dataclass
class Outcome:
    """What one timed run produced."""

    #: Simulated results, compared exactly against the pins.
    outputs: Dict[str, Any]
    #: Units of work done, the numerator of ``work_per_s``.
    work: int
    #: Operations the workload offered, and how many of them failed.
    attempted: int
    failed: int
    #: Count metrics of the program's own state, read after the run
    #: (no tracing needed), merged into the per-layer table.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Host milliseconds per service tick (service workload only).
    tick_ms: List[float] = field(default_factory=list)


class _Arrivals:
    """A tenant-arrival list pre-generated in set-up.

    ``ClusterSim.run`` only asks its workload for ``arrivals(until)``;
    serving a list generated beforehand moves workload generation out
    of the timed run without changing the arrivals.  The simulator
    pulls the next arrival once it has simulated up to the previous
    one, so a stamp every ``ARRIVALS_PER_SEGMENT`` pulls marks the same
    point of the run in every pass.
    """

    def __init__(self, items: list, stamps: List[float]) -> None:
        self.items = items
        self.stamps = stamps

    def arrivals(self, until: float):
        clock, stamps = time.perf_counter, self.stamps
        for i, item in enumerate(self.items):
            if i and i % ARRIVALS_PER_SEGMENT == 0:
                stamps.append(clock())
            yield item


class FluidWorkload:
    """One Fig. 16a operating point of the fluid datacenter simulator
    (the ``fig16_scale_cell`` campaign cell, boost 4.0, x = 3.0)."""

    #: Every submitted job is placed or rejected, and an admitted one is
    #: simulated until it finishes or the horizon ends it; finished jobs
    #: alone would track the luck of a short horizon, not the work done.
    work_unit = "submitted jobs"
    #: One input only: across workload seeds the cost per submitted job
    #: varies more than a regression bound could hold (README.md).
    variants = 1

    def __init__(self, name: str, policy: str, servers: int,
                 horizon: float, base_seed: int, spare_setups: int) -> None:
        self.name = name
        self.policy = policy
        self.servers = servers
        self.horizon = horizon
        self.base_seed = base_seed
        self.spare_setups = spare_setups

    def cell_args(self, variant: int) -> Dict[str, Any]:
        """Arguments of the equivalent ``fig16_scale_cell`` call."""
        return {"policy": self.policy, "servers": self.servers,
                "boost": 4.0, "permutation_x": 3.0,
                "horizon": self.horizon,
                "seed": self.base_seed + variant}

    def setup(self, variant: int) -> Dict[str, Any]:
        manager_cls, sharing = {
            "silo": (SiloPlacementManager, "reserved"),
            "locality": (LocalityPlacementManager, "maxmin"),
        }[self.policy]
        pods, racks = FIG16_SCALE_SHAPES[self.servers]
        topo = TreeTopology(n_pods=pods, racks_per_pod=racks,
                            servers_per_rack=10, slots_per_server=4,
                            link_rate=units.gbps(10), oversubscription=5.0,
                            buffer_bytes=312 * units.KB)
        manager = manager_cls(topo)
        config = WorkloadConfig(b_flow_bytes=250 * units.MB,
                                a_flow_bytes=5 * units.MB,
                                mean_compute_time=8.0,
                                a_delay=600 * units.MICROS,
                                permutation_x=3.0, mean_vms=10, max_vms=16)
        workload = TenantWorkload.for_occupancy(
            config, 0.5, topo.n_slots, seed=self.base_seed + variant)
        workload.arrival_rate *= 4.0
        stamps: List[float] = []
        arrivals = _Arrivals(list(workload.arrivals(self.horizon)), stamps)
        sim = ClusterSim(manager, sharing=sharing)
        return {"manager": manager, "sim": sim, "arrivals": arrivals,
                "stamps": stamps}

    def run(self, state: Dict[str, Any]) -> Outcome:
        manager, sim = state["manager"], state["sim"]
        stats = sim.run(state["arrivals"], until=self.horizon)
        durations = stats.job_durations
        outputs = {
            "utilization": float(stats.network_utilization),
            "occupancy": float(stats.mean_occupancy),
            "admitted": float(manager.admitted_fraction()),
            "admitted_class_a":
                float(manager.admitted_fraction(TenantClass.CLASS_A)),
            "admitted_class_b":
                float(manager.admitted_fraction(TenantClass.CLASS_B)),
            "finished_jobs": stats.finished_jobs,
            "mean_job_duration": (float(sum(durations) / len(durations))
                                  if durations else 0.0),
            "peak_concurrent_flows": stats.peak_concurrent_flows,
        }
        submitted = len(state["arrivals"].items)
        return Outcome(
            outputs=outputs, work=submitted, attempted=submitted, failed=0,
            counts={"flowsim.rate_updates": sim.rate_update_count,
                    "flowsim.peak_flows": stats.peak_concurrent_flows})

    def teardown(self, state: Dict[str, Any]) -> None:
        state.clear()

    def violations(self, outputs: Dict[str, Any]) -> List[str]:
        bad = []
        for key in ("utilization", "occupancy", "admitted"):
            if not 0.0 <= outputs[key] <= 1.0:
                bad.append(f"{key} {outputs[key]} outside [0, 1]")
        if outputs["finished_jobs"] <= 0:
            bad.append("no job finished")
        return bad


class PacketWorkload:
    """Silo's full packet-level stack on the Fig. 12 tenant mix (the
    ``mechanism_compare_cell`` campaign cell for silo x fig12)."""

    work_unit = "port transmissions"
    variants = N_VARIANTS
    spare_setups = 12

    def __init__(self, name: str, duration: float, base_seed: int) -> None:
        self.name = name
        self.duration = duration
        self.base_seed = base_seed

    def cell_args(self, variant: int) -> Dict[str, Any]:
        """Arguments of the equivalent ``mechanism_compare_cell`` call."""
        return {"mechanism": "silo", "workload": "fig12",
                "duration": self.duration,
                "seed": self.base_seed + variant}

    def setup(self, variant: int) -> Dict[str, Any]:
        shape = MECHANISM_WORKLOADS["fig12"]
        mech = get_mechanism("silo")
        topo = TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=5,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=5.0,
                            buffer_bytes=312 * units.KB)
        # Tenants arrive interleaved a, b, a, b, a and are admitted by
        # Silo's delay-aware placement, as in the campaign cell.
        manager = SiloPlacementManager(topo)
        placements = []
        for i in range(N_CLASS_A + N_CLASS_B):
            if i % 2 == 0 and i // 2 < N_CLASS_A:
                kind, request = "a", TenantRequest(
                    n_vms=VMS_PER_TENANT_A, guarantee=CLASS_A_GUARANTEE,
                    tenant_class=TenantClass.CLASS_A)
            else:
                kind, request = "b", TenantRequest(
                    n_vms=VMS_PER_TENANT_B, guarantee=CLASS_B_GUARANTEE,
                    tenant_class=TenantClass.CLASS_B)
            placement = manager.place(request)
            if placement is None:
                raise RuntimeError("packet workload tenant rejected")
            placements.append((kind, request, placement))
        net = mech.build_network(topo)
        metrics = MetricsCollector()
        rng = random.Random(self.base_seed + variant)
        vm_counter = 0
        class_a, class_b = [], []
        for kind, request, placement in placements:
            vm_ids = []
            for server in placement.vm_servers:
                mech.add_vm(net, vm_counter, request.tenant_id, server,
                            guarantee=request.guarantee)
                vm_ids.append(vm_counter)
                vm_counter += 1
            if kind == "a":
                class_a.append(request.tenant_id)
                EpochBurstApp(
                    net, metrics, request.tenant_id, vm_ids,
                    Fixed(CLASS_A_MESSAGE), epoch=CLASS_A_EPOCH, rng=rng,
                    jitter=shape["jitter"],
                    transport_class=mech.transport_class(),
                    transport_kwargs=mech.transport_kwargs()).start()
            else:
                class_b.append(request.tenant_id)
                BulkApp(net, metrics, request.tenant_id,
                        all_to_all_pairs(vm_ids), chunk_size=shape["chunk"],
                        transport_class=mech.transport_class(),
                        transport_kwargs=mech.transport_kwargs()).start()
        mech.start(net)
        bound = CLASS_A_GUARANTEE.message_latency_bound(CLASS_A_MESSAGE)
        return {"net": net, "metrics": metrics, "class_a": set(class_a),
                "class_b": set(class_b), "bound": bound, "stamps": []}

    def run(self, state: Dict[str, Any]) -> Outcome:
        net, metrics = state["net"], state["metrics"]
        # The engine resumes where ``run(until)`` stopped, so running it
        # slice by slice fires the same events in the same order.
        for k in range(1, PACKET_SEGMENTS):
            net.sim.run(until=self.duration * k / PACKET_SEGMENTS)
            state["stamps"].append(time.perf_counter())
        net.sim.run(until=self.duration)
        a_records = [r for r in metrics.records
                     if r.tenant_id in state["class_a"]]
        a_done = [r for r in a_records if r.completed]
        # A message can miss its bound only once its deadline has
        # passed; one still in flight at the end of the run is not due.
        bound = state["bound"]
        due = [r for r in a_records if r.start + bound <= self.duration]
        missed = sum(1 for r in due
                     if not r.completed or r.latency > bound)
        latencies = [r.latency for r in a_done]
        b_bytes = sum(r.size for r in metrics.records
                      if r.tenant_id in state["class_b"] and r.completed)
        stats = net.port_stats()
        tx_packets = sum(p.stats.tx_packets for p in net.ports.values())
        outputs = {
            "messages": len(a_records),
            "incomplete": len(a_records) - len(a_done),
            "due": len(due),
            "missed": missed,
            "latency_us": {label: percentile(latencies, q) * 1e6
                           for label, q in (("p50", 50.0), ("p90", 90.0),
                                            ("p99", 99.0),
                                            ("p999", 99.9))},
            "max_latency_us": max(latencies) * 1e6,
            "class_b_bytes": b_bytes,
            "tx_packets": tx_packets,
            "tx_bytes": stats["tx_bytes"],
            "drops": stats["drops"],
            "pushouts": stats["pushouts"],
        }
        return Outcome(
            outputs=outputs, work=tx_packets, attempted=len(due),
            failed=missed,
            counts={
                "port.tx_packets": tx_packets,
                "port.drops": stats["drops"],
                "port.pushouts": stats["pushouts"],
                "port.max_queue_bytes": stats["max_queue_bytes"],
                "transport.rto_events": sum(
                    t.rto_count for t in net.transports.values()),
                "packet.msg_p50_us": outputs["latency_us"]["p50"],
            })

    def teardown(self, state: Dict[str, Any]) -> None:
        state.clear()

    def violations(self, outputs: Dict[str, Any]) -> List[str]:
        bad = []
        if outputs["due"] <= 0:
            bad.append("no class-A message was due by the end")
        # Silo's guarantee: no admitted, paced class-A message is late.
        if outputs["missed"]:
            bad.append(f"{outputs['missed']} class-A messages missed "
                       f"their bound")
        return bad


class ServiceWorkload:
    """The admission service under closed-loop load and a server-crash
    storm (the ``bench_service`` fault-storm configuration)."""

    work_unit = "decided admissions"
    #: One input only, as for the fluid workloads.
    variants = 1
    spare_setups = 3
    faults = "poisson:mtbf_ms=100,mttr_ms=60,targets=server"

    def __init__(self, name: str, horizon: float, base_seed: int,
                 work_dir: Path) -> None:
        self.name = name
        self.horizon = horizon
        self.base_seed = base_seed
        self._work_dir = work_dir

    def setup(self, variant: int) -> Dict[str, Any]:
        seed = self.base_seed + variant
        topo = TreeTopology(n_pods=8, racks_per_pod=8, servers_per_rack=16,
                            slots_per_server=8, link_rate=units.gbps(10),
                            oversubscription=5.0,
                            buffer_bytes=312 * units.KB)
        data_dir = Path(tempfile.mkdtemp(prefix="service-",
                                         dir=self._work_dir))
        service = AdmissionService(topo, data_dir / "svc",
                                   queue_capacity=256, batch_size=32,
                                   snapshot_every=500)
        schedule = FaultSchedule.from_spec(self.faults, topo,
                                           horizon=self.horizon, seed=seed)
        loadgen = ClosedLoopLoadGen(service, arrival_rate=300.0,
                                    horizon=self.horizon, seed=seed,
                                    fault_events=list(schedule.events))
        tick_ms: List[float] = []
        stamps: List[float] = []
        tick = service.tick

        def timed_tick(now: float):
            start = time.perf_counter()
            stamps.append(start)
            try:
                return tick(now)
            finally:
                tick_ms.append((time.perf_counter() - start) * 1e3)

        service.tick = timed_tick
        return {"service": service, "loadgen": loadgen,
                "data_dir": data_dir, "tick_ms": tick_ms, "stamps": stamps}

    def run(self, state: Dict[str, Any]) -> Outcome:
        service, loadgen = state["service"], state["loadgen"]
        summary = loadgen.run()
        metrics = summary["metrics"]
        outputs = {key: metrics[key] for key in (
            "admitted", "rejected_admission", "rejected_backpressure",
            "shed", "expired", "departed", "faults", "ticks", "snapshots",
            "max_queue_depth", "max_admit_depth")}
        outputs["gave_up"] = summary["gave_up"]
        outputs["live_tenants"] = len(service.cluster.placements)
        outputs["digest"] = summary["digest"]
        failed = (metrics["rejected_backpressure"] + metrics["expired"]
                  + metrics["shed"] + summary["gave_up"])
        return Outcome(
            outputs=outputs,
            work=metrics["admitted"] + metrics["rejected_admission"],
            attempted=len(loadgen.arrivals), failed=failed,
            counts={"service.max_queue_depth": metrics["max_queue_depth"],
                    "wal.bytes": service.wal.path.stat().st_size},
            tick_ms=list(state["tick_ms"]))

    def teardown(self, state: Dict[str, Any]) -> None:
        if "service" in state:
            state["service"].close()
            shutil.rmtree(state["data_dir"], ignore_errors=True)
        state.clear()

    def violations(self, outputs: Dict[str, Any]) -> List[str]:
        bad = []
        if outputs["live_tenants"] > outputs["admitted"]:
            bad.append(f"{outputs['live_tenants']} live tenants but only "
                       f"{outputs['admitted']} admitted")
        if outputs["faults"] <= 0:
            bad.append("the fault storm injected nothing")
        return bad


def build(work_dir: Path) -> Dict[str, Any]:
    """The workloads by name, in the order ``BENCHMARK.json`` lists them;
    the service keeps its WAL and snapshots under ``work_dir``."""
    return {w.name: w for w in (
        FluidWorkload("fluid-silo-8k", "silo", 8000, horizon=2.5,
                      base_seed=47, spare_setups=1),
        FluidWorkload("fluid-locality-2k", "locality", 2000, horizon=12.0,
                      base_seed=47, spare_setups=4),
        PacketWorkload("packet-fig12-silo", duration=0.015, base_seed=1234),
        ServiceWorkload("service-storm-1k", horizon=3.0, base_seed=7,
                        work_dir=work_dir),
    )}
