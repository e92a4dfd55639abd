"""Closed-form admission bounds must match the Curve-built oracle.

``PortState.admits``/``backlog``/``queue_bound`` use the closed-form
dual-rate expressions from :mod:`repro.netcalc.fastbounds`; the
``*_reference`` oracles in ``tests/oracles/placement_reference.py``
rebuild the conservative aggregate :class:`~repro.netcalc.curves.Curve`
per probe, exactly as the seed did.
These property tests drive both over randomized port states and probes --
at unit scale and at Gbps/byte scale, where epsilon bugs hide -- and
demand identical accept/reject decisions and matching bounds.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement import SiloPlacementManager
from repro.placement.state import Contribution, PortState
from repro.topology import TreeTopology
from repro.topology.switch import Port, PortKind

from oracles.placement_reference import (ReferenceSiloPlacementManager,
                                         admits_reference, backlog_reference,
                                         queue_bound_reference)

#: (capacity, buffer) regimes: toy unit scale, tight Gbps, roomy Gbps.
_PORTS = [
    (1.0, 10.0),
    (units.gbps(1), 100 * units.KB),
    (units.gbps(10), 312 * units.KB),
]


def _make_state(port_idx: int) -> PortState:
    capacity, buffer_bytes = _PORTS[port_idx]
    return PortState(Port(port_id=0, kind=PortKind.TOR_DOWN,
                          capacity=capacity, buffer_bytes=buffer_bytes))


def _contribution(capacity: float, bw_frac: float, burst_frac: float,
                  peak_factor: float, slack_frac: float) -> Contribution:
    bandwidth = bw_frac * capacity
    return Contribution(
        bandwidth=bandwidth,
        burst=burst_frac * capacity * 0.01,
        peak_rate=bandwidth * peak_factor,
        packet_slack=slack_frac * 3 * units.MTU)


contribution_params = st.tuples(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=1.0),
    st.one_of(st.just(1.0), st.floats(min_value=1.0, max_value=50.0)),
    st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=300, deadline=None)
@given(port_idx=st.integers(min_value=0, max_value=len(_PORTS) - 1),
       base=st.lists(contribution_params, max_size=5),
       probe=contribution_params)
def test_closed_form_matches_curve_oracle(port_idx, base, probe):
    state = _make_state(port_idx)
    capacity = _PORTS[port_idx][0]
    for params in base:
        state.add(_contribution(capacity, *params))
    extra = _contribution(capacity, *probe)

    assert state.admits(extra) == admits_reference(state, extra)
    assert state.backlog(extra) == pytest.approx(
        backlog_reference(state, extra), rel=1e-9, abs=1e-9)
    assert state.queue_bound(extra) == pytest.approx(
        queue_bound_reference(state, extra), rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(port_idx=st.integers(min_value=0, max_value=len(_PORTS) - 1),
       base=st.lists(contribution_params, max_size=5))
def test_standing_bounds_match_oracle(port_idx, base):
    """Bounds with no probe (extra=None) agree too."""
    state = _make_state(port_idx)
    capacity = _PORTS[port_idx][0]
    for params in base:
        state.add(_contribution(capacity, *params))

    assert state.backlog() == pytest.approx(
        backlog_reference(state), rel=1e-9, abs=1e-9)
    qb = state.queue_bound()
    qb_ref = queue_bound_reference(state)
    if math.isinf(qb_ref):
        assert math.isinf(qb)
    else:
        assert qb == pytest.approx(qb_ref, rel=1e-9, abs=1e-12)


def test_fast_and_reference_managers_agree_on_campaign():
    """End-to-end: identical admission decisions and VM layouts for a
    churning campaign from the shipped manager and the seed walk."""
    import sys
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]
                           / "benchmarks"))
    import bench_hotpaths

    topology = bench_hotpaths._campaign_topology(1, 4)
    fast = SiloPlacementManager(topology)
    ref = ReferenceSiloPlacementManager(
        bench_hotpaths._campaign_topology(1, 4))
    fast_dec, fast_lay = bench_hotpaths._run_campaign(fast, 120, seed=3)
    ref_dec, ref_lay = bench_hotpaths._run_campaign(ref, 120, seed=3)
    assert fast_dec == ref_dec
    assert fast_lay == ref_lay


@pytest.mark.parametrize("min_fault_domains", [1, 3])
def test_fast_and_reference_managers_agree_under_faults(min_fault_domains):
    """Identical decisions and layouts from fast and reference managers
    when cordons, NIC-up/ToR-down poisons and tenants wider than one
    server interleave with admissions and removals -- the paths the
    rack/pod skips and the wholly-pristine-rack step touch."""
    def build(manager_cls):
        topology = TreeTopology(n_pods=3, racks_per_pod=3,
                                servers_per_rack=4, slots_per_server=4,
                                link_rate=units.gbps(10),
                                oversubscription=5.0)
        return manager_cls(topology, min_fault_domains=min_fault_domains)

    fast = build(SiloPlacementManager)
    ref = build(ReferenceSiloPlacementManager)
    topology = fast.topology
    rng = random.Random(5)
    placed, cordoned, poisons = [], [], []
    widths = set()
    for step in range(400):
        roll = rng.random()
        if roll < 0.55:
            n_vms = rng.randint(1, 20)
            delay = rng.choice([None, 1e-3])
            guarantee = NetworkGuarantee(
                bandwidth=units.mbps(rng.choice([100, 400, 1500, 3000])),
                burst=rng.choice([15e3, 60e3, 150e3]), delay=delay,
                peak_rate=units.gbps(5))
            request = TenantRequest(
                n_vms=n_vms, guarantee=guarantee,
                tenant_class=(TenantClass.CLASS_A if delay is not None
                              else TenantClass.CLASS_B))
            got, want = fast.place(request), ref.place(request)
            assert (got is None) == (want is None), step
            if got is not None:
                assert got.vm_servers == want.vm_servers, step
                placed.append(request.tenant_id)
                widths.add(n_vms > topology.slots_per_server)
        elif roll < 0.68 and placed:
            tenant = placed.pop(rng.randrange(len(placed)))
            fast.remove(tenant)
            ref.remove(tenant)
        elif roll < 0.76:
            server = rng.randrange(topology.n_servers)
            fast.cordon_server(server)
            ref.cordon_server(server)
            cordoned.append(server)
        elif roll < 0.82 and cordoned:
            server = cordoned.pop(rng.randrange(len(cordoned)))
            fast.uncordon_server(server)
            ref.uncordon_server(server)
        elif roll < 0.94:
            server = rng.randrange(topology.n_servers)
            port = rng.choice([topology.nic_up(server),
                               topology.tor_down(server)])
            key = f"poison-{step}"
            lost = rng.choice([0.3, 0.7, 0.95]) * port.capacity
            for manager in (fast, ref):
                manager.reserve_capacity(
                    port.port_id, Contribution(lost, 0.0, lost, 0.0), key)
            poisons.append((port.port_id, key))
        elif poisons:
            port_id, key = poisons.pop(rng.randrange(len(poisons)))
            fast.release_capacity(port_id, key)
            ref.release_capacity(port_id, key)
        assert fast.free_slots == ref.free_slots, step
    assert fast.accepted == ref.accepted and fast.rejected == ref.rejected
    assert fast.accepted and fast.rejected
    assert widths == {True, False}


def test_fill_steps_over_a_pristine_rack_onto_the_next_server():
    """After an empty server fails, the fast fill steps over the wholly
    pristine rack that follows in one go and still tries the very next
    server -- here the one whose larger balanced share fits the tenant,
    exactly as the server-by-server reference walk finds it."""
    def build(manager_cls):
        topology = TreeTopology(n_pods=1, racks_per_pod=3,
                                servers_per_rack=2, slots_per_server=4,
                                link_rate=units.gbps(10),
                                oversubscription=1.0)
        manager = manager_cls(topology)
        for server in (4, 5):  # rack 2 touched, its ports still empty
            manager.adopt(TenantRequest(
                n_vms=1, guarantee=None,
                tenant_class=TenantClass.BEST_EFFORT), {server: 1})
        return manager

    fast = build(SiloPlacementManager)
    ref = build(ReferenceSiloPlacementManager)
    # Five senders' bursts overflow an empty server's ToR-down buffer
    # (so server 0 fails with its balanced share of one VM), three fit.
    request = TenantRequest(n_vms=6, guarantee=NetworkGuarantee(
        bandwidth=units.mbps(10), burst=0.3 * fast.topology.buffer_bytes,
        peak_rate=units.gbps(10)))
    available = list(range(6))
    got = fast._fill(request, available, "balanced", "cluster")
    assert got == ref._fill(request, available, "balanced", "cluster")
    assert got == {4: 3, 5: 3}
