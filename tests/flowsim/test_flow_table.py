"""Per-flow fluid state under the simulator.

Covers the no-op-rate-skip regression (a recompute touching one max-min
component must not re-rate flows in a disjoint component) and the type
of the state itself: ``remaining``/``rate``/``updated`` stay plain
Python floats through a run, so reprs and anything serialized from them
never carry a numpy scalar.
"""

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.flowsim import ClusterSim, TenantWorkload
from repro.flowsim.workload import TenantArrival, WorkloadConfig
from repro.placement import LocalityPlacementManager
from repro.topology import TreeTopology


def _locality_topo():
    return TreeTopology(n_pods=1, racks_per_pod=2, servers_per_rack=4,
                        slots_per_server=4, link_rate=units.gbps(10))


def _rack_job(flow_bytes, time=0.0):
    request = TenantRequest(
        n_vms=16,
        guarantee=NetworkGuarantee(bandwidth=units.gbps(2),
                                   burst=1.5 * units.KB),
        tenant_class=TenantClass.CLASS_B)
    return TenantArrival(time=time, request=request, pairs=[(0, 15)],
                         flow_bytes=flow_bytes, compute_time=0.0)


class StaticWorkload:
    def __init__(self, items):
        self._items = items

    def arrivals(self, until):
        return iter([a for a in self._items if a.time < until])


class TestNoOpRateSkip:
    def test_disjoint_component_drain_skips_untouched_flows(self):
        """Draining one rack-local tenant must not re-rate the other.

        Two 16-VM tenants fill the two racks of a 32-slot tree; each
        runs one rack-local flow, so the max-min components are
        disjoint.  When the short flow drains, the recompute must leave
        the long flow's rate (and epoch) untouched: exactly two rate
        updates happen over the whole run, one per flow at admission.
        """
        manager = LocalityPlacementManager(_locality_topo())
        sim = ClusterSim(manager, sharing="maxmin")
        short = _rack_job(flow_bytes=1 * units.MB)
        long = _rack_job(flow_bytes=200 * units.MB)
        stats = sim.run(StaticWorkload([short, long]), until=30.0)
        assert stats.finished_jobs == 2
        assert sim.rate_update_count == 2
        # The departed flow was alone in its component, so the
        # drain-time recompute found an empty dirty closure and cost
        # nothing: one counted solve (admission) over two flows, ever.
        assert sim._mm_solver.recompute_count == 1
        assert sim._mm_solver.affected_flow_count == 2


class TestPlainFloatState:
    def test_maxmin_run_leaves_plain_float_flow_state(self):
        """Every flow's mutable state is a Python float after a run.

        The run stops with jobs still live, so their flows are inspected
        mid-flight as well as after they drained.
        """
        topo = TreeTopology(n_pods=2, racks_per_pod=2, servers_per_rack=4,
                            slots_per_server=4, link_rate=units.gbps(10),
                            oversubscription=2.0)
        sim = ClusterSim(LocalityPlacementManager(topo), sharing="maxmin")
        built = []
        build_flows = sim._build_flows

        def recording_build_flows(arrival, vm_servers):
            flows = build_flows(arrival, vm_servers)
            built.extend(flows)
            return flows

        sim._build_flows = recording_build_flows
        workload = TenantWorkload(
            WorkloadConfig(b_flow_bytes=20 * units.MB,
                           mean_compute_time=0.5),
            arrival_rate=6.0, seed=9)
        sim.run(workload, until=4.0)
        live = [flow for job in sim.jobs.values() for flow in job.flows]
        assert live and len(built) > len(live)
        for flow in built:
            for value in (flow.remaining, flow.rate, flow.updated):
                assert type(value) is float, repr(flow)
            assert "np.float64" not in repr(flow)
