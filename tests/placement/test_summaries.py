"""Property tests for the placement manager's per-domain summaries.

The fast search skips racks and pods in O(1) by reading cached
summaries -- free-slot totals, touched-server counts, each rack's best
single server, and each rack's count of fault poisons on its servers'
NIC-up and ToR-down ports.  Every one of them must equal a fresh
recomputation from ``free_slots`` and the port registry after any
sequence of admissions, removals, cordons and poisons.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.guarantees import NetworkGuarantee
from repro.core.tenant import TenantClass, TenantRequest
from repro.placement import SiloPlacementManager
from repro.placement.state import Contribution
from repro.topology import TreeTopology
from repro.topology.switch import PortKind

_OPS = ("place", "place", "place_batch", "remove", "cordon", "uncordon",
        "reserve", "release")

shapes = st.tuples(
    st.integers(min_value=1, max_value=2),   # pods
    st.integers(min_value=1, max_value=3),   # racks per pod
    st.integers(min_value=1, max_value=4),   # servers per rack
    st.integers(min_value=2, max_value=8),   # slots per server
)
ops = st.lists(st.tuples(st.sampled_from(_OPS),
                         st.integers(min_value=0, max_value=10 ** 6),
                         st.integers(min_value=1, max_value=20)),
               min_size=1, max_size=40)


def _request(n_vms: int, salt: int) -> TenantRequest:
    if salt % 3 == 0:
        return TenantRequest(n_vms=n_vms, guarantee=None,
                             tenant_class=TenantClass.BEST_EFFORT)
    delay = 1e-3 if salt % 3 == 1 else None
    guarantee = NetworkGuarantee(
        bandwidth=units.mbps(100 + salt % 900), burst=15e3, delay=delay,
        peak_rate=units.gbps(1))
    return TenantRequest(
        n_vms=n_vms, guarantee=guarantee,
        tenant_class=(TenantClass.CLASS_A if delay is not None
                      else TenantClass.CLASS_B))


def _expected(manager):
    """Every summary recomputed from scratch."""
    topo = manager.topology
    full = topo.slots_per_server
    free = manager.free_slots
    racks = [list(topo.servers_in_rack(r)) for r in range(topo.n_racks)]
    pods = [list(topo.racks_in_pod(p)) for p in range(topo.n_pods)]
    rack_free = [sum(free[s] for s in servers) for servers in racks]
    rack_touched = [sum(free[s] < full for s in servers)
                    for servers in racks]
    poisons = [0] * topo.n_racks
    for port_id, registry in manager._port_registry.items():
        port = manager.states[port_id].port
        if port.kind in (PortKind.NIC_UP, PortKind.TOR_DOWN):
            poisons[topo.rack_of(port.index)] += sum(
                1 for key in registry if key[0] == "reserve")
    return {
        "_rack_free": rack_free,
        "_pod_free": [sum(rack_free[r] for r in rs) for rs in pods],
        "_total_free": sum(free),
        "_rack_touched": rack_touched,
        "_pod_touched": [sum(rack_touched[r] for r in rs) for rs in pods],
        "_rack_best": [max(free[s] for s in servers) for servers in racks],
        "_rack_poisons": poisons,
    }


def _check(manager):
    for name, want in _expected(manager).items():
        assert getattr(manager, name) == want, name
    full = manager.topology.slots_per_server
    for rack in range(manager.topology.n_racks):
        if manager._rack_pristine(rack):
            assert all(manager._server_pristine(s, full) for s in
                       manager.topology.servers_in_rack(rack))


def _apply(manager, op, pick, size, reserved):
    topo = manager.topology
    server = pick % topo.n_servers
    if op == "place":
        manager.place(_request(size, pick))
    elif op == "place_batch":
        manager.place_batch([_request(size, pick),
                             _request(max(1, size // 2), pick + 1),
                             _request(size, pick)])
    elif op == "remove" and manager.placements:
        tenants = sorted(manager.placements)
        manager.remove(tenants[pick % len(tenants)])
    elif op == "cordon":
        manager.cordon_server(server)
    elif op == "uncordon":
        manager.uncordon_server(server)
    elif op == "reserve":
        # Mostly server-facing ports (the ones the rack count tracks),
        # sometimes a fabric port (which it must ignore).
        ports = topo.ports
        port = ([topo.nic_up(server), topo.tor_down(server)][pick % 2]
                if pick % 5 else ports[pick % len(ports)])
        key = f"poison-{size}"
        if (port.port_id, key) not in reserved:
            lost = 0.1 * size * port.capacity / 20
            manager.reserve_capacity(
                port.port_id, Contribution(lost, 0.0, lost, 0.0), key)
            reserved.append((port.port_id, key))
    elif op == "release" and reserved:
        port_id, key = reserved.pop(pick % len(reserved))
        manager.release_capacity(port_id, key)


@settings(max_examples=60, deadline=None)
@given(shapes, ops, st.integers(min_value=1, max_value=3))
def test_summaries_match_fresh_recomputation(shape, op_list,
                                             min_fault_domains):
    pods, racks, servers, slots = shape
    topo = TreeTopology(n_pods=pods, racks_per_pod=racks,
                        servers_per_rack=servers, slots_per_server=slots,
                        link_rate=units.gbps(10), oversubscription=5.0)
    manager = SiloPlacementManager(topo,
                                   min_fault_domains=min_fault_domains)
    reserved = []
    _check(manager)
    for op, pick, size in op_list:
        _apply(manager, op, pick, size, reserved)
        _check(manager)
    # A rebuild from the raw books (the snapshot-restore path) agrees.
    manager._rebuild_caches()
    _check(manager)
