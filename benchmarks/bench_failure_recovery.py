"""Failure-recovery benchmark: recovery under load, and no-faults overhead.

Two campaigns over the fault-injection subsystem:

* **recovery sweep** -- fill a two-pod cluster to 85% slot occupancy,
  replay a Poisson server-crash schedule through the self-healing
  :class:`ClusterController`, and sweep the failure rate (MTBF 50 ms
  down to 2.5 ms with a 50 ms MTTR, so outages overlap at the
  aggressive end).  The full run asserts the Silo recovered fraction,
  pooled over seeds, is non-increasing as the failure rate grows, and
  that Silo recovers at least as many tenants as Oktopus at every
  point of the sweep (both managers are filled to the same slot
  occupancy by the same workload draw).
* **overhead check** (``--overhead-check``) -- the fault machinery must
  be free when unused.  Placement: a churning admission campaign on
  the current manager vs a seed-style subclass with the per-port
  release registry compiled out.  Flowsim: the same workload on a
  plain :class:`ClusterSim` vs one with an (idle) controller attached.
  The two sides run trial by trial, in alternating order, and each
  ratio is the median over the trials of one side's time over the
  other's in the same trial; both must stay under 1.02 (2% overhead).
  The host's speed drifts in spells longer than a trial, so comparing
  each side's best trial let one spell decide the result.

Run::

    PYTHONPATH=src python benchmarks/bench_failure_recovery.py            # sweep
    PYTHONPATH=src python benchmarks/bench_failure_recovery.py --quick
    PYTHONPATH=src python benchmarks/bench_failure_recovery.py --overhead-check

The quick mode runs a reduced sweep without the monotonicity asserts
(single seed, two rate points); the full sweep is deterministic, so
its asserts are stable across machines.  ``--overhead-check`` runs
only the timing comparison (used as a CI floor).
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
if str(_REPO / "src") not in sys.path:
    sys.path.insert(0, str(_REPO / "src"))

from repro import units
from repro.campaign import (get_sweep, pool_values, run_campaign,
                            sum_counters)
from repro.campaign.scenarios import (RECOVERY_MTBF_MS, RECOVERY_MTTR_S,
                                      RECOVERY_OCCUPANCY, RECOVERY_SEEDS)
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.flowsim import ClusterSim, TenantWorkload, WorkloadConfig
from repro.placement import ClusterController, SiloPlacementManager
from repro.topology import TreeTopology

#: No-faults overhead ceiling: armed/instrumented vs seed-style timing.
OVERHEAD_CEILING = 1.02

#: Grid aliases; the actual sweep definition (cells, seeds, fill
#: occupancy, MTTR, horizon) is the registered ``failure-recovery``
#: campaign in :mod:`repro.campaign.scenarios`.
SWEEP_MTBF_MS = RECOVERY_MTBF_MS
SWEEP_SEEDS = RECOVERY_SEEDS
SWEEP_OCCUPANCY = RECOVERY_OCCUPANCY
SWEEP_MTTR_S = RECOVERY_MTTR_S


# ---------------------------------------------------------------------------
# Part 1: recovery sweep
# ---------------------------------------------------------------------------

def bench_recovery(quick: bool) -> dict:
    mtbf_points = SWEEP_MTBF_MS[::2] if quick else SWEEP_MTBF_MS
    seeds = SWEEP_SEEDS[:1] if quick else SWEEP_SEEDS
    spec = get_sweep("failure-recovery")
    if quick:
        spec = spec.restrict(seeds=seeds, mtbf_ms=list(mtbf_points))
    campaign = run_campaign(spec)
    points = []
    for mtbf_ms in mtbf_points:
        point = {"mtbf_ms": mtbf_ms, "mttr_ms": SWEEP_MTTR_S * 1e3,
                 "occupancy": SWEEP_OCCUPANCY, "seeds": len(seeds)}
        for name in ("silo", "oktopus"):
            cells = [campaign.get(mtbf_ms=mtbf_ms, policy=name, seed=s)
                     for s in seeds]
            counts = sum_counters([{"affected": c["affected"],
                                    "recovered": c["recovered"]}
                                   for c in cells])
            guarantee_seconds = sum(c["guarantee_seconds_lost"]
                                    for c in cells)
            recover_times = pool_values([c["recover_times"]
                                         for c in cells])
            affected = counts.get("affected", 0)
            recovered = counts.get("recovered", 0)
            point[name] = {
                "affected": affected,
                "recovered": recovered,
                "recovered_fraction": round(
                    recovered / affected if affected else 1.0, 4),
                "guarantee_seconds_lost": round(guarantee_seconds, 4),
                "mean_ttr_ms": round(
                    1e3 * sum(recover_times) / len(recover_times), 3)
                    if recover_times else None,
            }
        points.append(point)
    if not quick:
        fractions = [p["silo"]["recovered_fraction"] for p in points]
        for faster, slower in zip(fractions[1:], fractions):
            assert faster <= slower + 1e-12, (
                f"recovered fraction not monotone in failure rate: "
                f"{fractions}")
        for point in points:
            assert point["silo"]["recovered"] >= \
                point["oktopus"]["recovered"], (
                    f"Silo recovered fewer tenants than Oktopus at "
                    f"mtbf={point['mtbf_ms']}ms: {point}")
    return {"points": points}


# ---------------------------------------------------------------------------
# Part 2: no-faults overhead
# ---------------------------------------------------------------------------

class _SeedStylePlacementManager(SiloPlacementManager):
    """Fault machinery compiled out, as the seed had it.

    Skips the per-port release registry on commit and decrements totals
    on remove instead of rebuilding them, so timing against the current
    manager isolates what exact release + fault hooks cost the
    no-faults hot path.
    """

    def _commit(self, request, assignment):
        from repro.placement.base import Placement
        vm_servers = []
        for server, count in sorted(assignment.items()):
            self._change_slots(server, -count)
            vm_servers.extend([server] * count)
        commits = list(self._port_contributions(request, assignment))
        for port_id, contribution in commits:
            self.states[port_id].add(contribution)
        placement = Placement(request=request, vm_servers=vm_servers)
        self.placements[request.tenant_id] = placement
        self._commits[request.tenant_id] = commits
        return placement

    def remove(self, tenant_id):
        placement = self.placements.pop(tenant_id, None)
        if placement is None:
            raise KeyError(f"tenant {tenant_id} is not placed")
        for server, count in placement.vms_per_server().items():
            self._change_slots(server, count)
        for port_id, contribution in self._commits.pop(tenant_id):
            self.states[port_id].remove(contribution)


def _overhead_topology() -> TreeTopology:
    return TreeTopology(n_pods=2, racks_per_pod=4, servers_per_rack=10,
                        slots_per_server=4, link_rate=units.gbps(10),
                        oversubscription=5.0, buffer_bytes=312 * units.KB)


def _placement_campaign(manager, n_requests: int, seed: int) -> int:
    """A churning admission campaign (15% removals); returns accepts."""
    rng = random.Random(seed)
    placed = []
    accepted = 0
    for _ in range(n_requests):
        n_vms = rng.randint(2, 24)
        if rng.random() < 0.4:
            guarantee = NetworkGuarantee(
                bandwidth=units.mbps(rng.choice([25, 50, 100])),
                burst=15e3, delay=1e-3, peak_rate=units.gbps(1))
            klass = TenantClass.CLASS_A
        else:
            guarantee = NetworkGuarantee(
                bandwidth=units.mbps(rng.choice([100, 200, 400])),
                burst=rng.choice([15e3, 60e3, 150e3]),
                peak_rate=units.gbps(1))
            klass = TenantClass.CLASS_B
        request = TenantRequest(n_vms=n_vms, guarantee=guarantee,
                                tenant_class=klass)
        if manager.place(request) is not None:
            placed.append(request.tenant_id)
            accepted += 1
        if placed and rng.random() < 0.15:
            manager.remove(placed.pop(rng.randrange(len(placed))))
    return accepted


def _interleaved(n_trials: int, run_a, run_b):
    """Results of ``n_trials`` calls of each side, run trial by trial and
    in alternating order, so both sides of a trial see the same host
    speed."""
    a, b = [], []
    for i in range(n_trials):
        if i % 2:
            b.append(run_b())
            a.append(run_a())
        else:
            a.append(run_a())
            b.append(run_b())
    return a, b


def bench_overhead(quick: bool) -> dict:
    n_requests = 300 if quick else 1500
    trials = 3 if quick else 25

    def time_placement(manager_cls):
        def trial():
            manager = manager_cls(_overhead_topology())
            t0 = time.perf_counter()
            _placement_campaign(manager, n_requests, seed=7)
            return time.perf_counter() - t0
        return trial

    current, seed_style = _interleaved(
        trials, time_placement(SiloPlacementManager),
        time_placement(_SeedStylePlacementManager))
    current_s, seed_style_s = min(current), min(seed_style)
    placement_ratio = statistics.median(
        a / b for a, b in zip(current, seed_style))

    horizon = 4.0 if quick else 12.0

    def time_flowsim(armed: bool):
        def trial():
            topology = _overhead_topology()
            manager = SiloPlacementManager(topology)
            controller = (ClusterController(manager, retry_evicted=False)
                          if armed else None)
            sim = ClusterSim(manager, sharing="reserved",
                             controller=controller)
            workload = TenantWorkload(WorkloadConfig(mean_compute_time=6.0),
                                      arrival_rate=40.0, seed=5)
            t0 = time.perf_counter()
            stats = sim.run(workload, until=horizon)
            return time.perf_counter() - t0, stats.finished_jobs
        return trial

    plain, armed = _interleaved(trials, time_flowsim(armed=False),
                                time_flowsim(armed=True))
    jobs = {n for _, n in plain + armed}
    assert len(jobs) == 1, f"idle controller changed outcomes: {jobs}"
    plain_s = min(t for t, _ in plain)
    armed_s = min(t for t, _ in armed)
    plain_jobs = plain[0][1]
    flowsim_ratio = statistics.median(
        a / p for (a, _), (p, _) in zip(armed, plain))

    report = {
        "requests": n_requests,
        "trials": trials,
        "placement": {
            "current_s": round(current_s, 4),
            "seed_style_s": round(seed_style_s, 4),
            "ratio": round(placement_ratio, 4),
        },
        "flowsim": {
            "plain_s": round(plain_s, 4),
            "armed_idle_s": round(armed_s, 4),
            "ratio": round(flowsim_ratio, 4),
            "finished_jobs": plain_jobs,
        },
    }
    if not quick:
        assert placement_ratio < OVERHEAD_CEILING, (
            f"placement no-faults overhead {placement_ratio:.4f} exceeds "
            f"{OVERHEAD_CEILING} ceiling")
        assert flowsim_ratio < OVERHEAD_CEILING, (
            f"flowsim no-faults overhead {flowsim_ratio:.4f} exceeds "
            f"{OVERHEAD_CEILING} ceiling")
    return report


# ---------------------------------------------------------------------------


def run(quick: bool, overhead_only: bool, out: Path) -> dict:
    report = {"quick": quick, "overhead_ceiling": OVERHEAD_CEILING}
    if overhead_only:
        report["overhead"] = bench_overhead(quick)
        o = report["overhead"]
        print(f"placement  current {o['placement']['current_s']:.3f}s  "
              f"seed-style {o['placement']['seed_style_s']:.3f}s  "
              f"ratio {o['placement']['ratio']:.4f}")
        print(f"flowsim    armed   {o['flowsim']['armed_idle_s']:.3f}s  "
              f"plain      {o['flowsim']['plain_s']:.3f}s  "
              f"ratio {o['flowsim']['ratio']:.4f}")
        if not quick:
            print(f"no-faults overhead under {OVERHEAD_CEILING} ceiling: OK")
    else:
        report["recovery"] = bench_recovery(quick)
        header = (f"{'mtbf':>6s} {'policy':8s} {'affected':>8s} "
                  f"{'recovered':>9s} {'fraction':>8s} {'G-sec lost':>10s} "
                  f"{'mean TTR':>9s}")
        print(header)
        print("-" * len(header))
        for point in report["recovery"]["points"]:
            for name in ("silo", "oktopus"):
                row = point[name]
                ttr = (f"{row['mean_ttr_ms']:>7.1f}ms"
                       if row["mean_ttr_ms"] is not None else f"{'--':>9s}")
                print(f"{point['mtbf_ms']:>4.1f}ms {name:8s} "
                      f"{row['affected']:>8d} {row['recovered']:>9d} "
                      f"{row['recovered_fraction']:>8.4f} "
                      f"{row['guarantee_seconds_lost']:>10.2f} {ttr}")
        if not quick:
            print("recovered fraction monotone in failure rate: OK")
            print("Silo recovers no fewer tenants than Oktopus: OK")
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {out}")
    return report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweep / short timing, no asserts")
    parser.add_argument("--overhead-check", action="store_true",
                        help="run only the no-faults overhead comparison "
                             "and enforce the <2%% ceiling")
    parser.add_argument("--out", type=Path, default=None,
                        help="JSON report path (default: the committed "
                             "BENCH_failure_recovery.json for a full "
                             "sweep; quick/overhead runs never overwrite "
                             "the baseline)")
    args = parser.parse_args(argv)
    out = args.out
    if out is None and not args.quick and not args.overhead_check:
        out = _REPO / "BENCH_failure_recovery.json"
    run(args.quick, args.overhead_check, out)


if __name__ == "__main__":
    main()
