"""Shaper backpressure wake-ups: one waiting entry per waiting transport.

A transport whose VM shaper is full registers its pump with
:meth:`PacketNetwork.notify_when_ready` and is called back when the
queue drains.  It retries on every ACK, so without deduplication the
same pump piled up in the waiting list once per failed attempt and was
then called that many times for nothing.
"""

from repro import units
from repro.campaign.scenarios import trace_cell
from repro.core.guarantees import NetworkGuarantee
from repro.phynet import MetricsCollector, PacketNetwork
from repro.topology import TreeTopology


def watch_waiters(monkeypatch):
    """Record, after every registration, the length of the list it
    joined, and fail at once on a callback that is waiting twice."""
    lengths = []
    register = PacketNetwork.notify_when_ready

    def notify_when_ready(self, vm_id, dst_vm, callback):
        register(self, vm_id, dst_vm, callback)
        waiters = self._ready_waiters[(vm_id, dst_vm)]
        assert all(waiters.count(w) == 1 for w in waiters), waiters
        lengths.append(len(waiters))

    monkeypatch.setattr(PacketNetwork, "notify_when_ready",
                        notify_when_ready)
    return lengths


def test_backlogged_paced_pair_waits_once(monkeypatch):
    lengths = watch_waiters(monkeypatch)
    topo = TreeTopology(n_pods=1, racks_per_pod=1, servers_per_rack=2,
                        slots_per_server=2, link_rate=units.gbps(10))
    net = PacketNetwork(topo, scheme="silo")
    sender = net.add_vm(0, 1, 0, paced=True,
                        guarantee=NetworkGuarantee(
                            bandwidth=units.mbps(200)))
    sender.pacer_queue_limit = 8 * units.KB
    net.add_vm(1, 1, 1)
    metrics = MetricsCollector()
    record = metrics.new_message(1, 0, 1, 2 * units.MB, 0.0)
    net.transport(0, 1).send_message(record)
    net.sim.run(until=0.2)
    assert record.completed
    assert len(lengths) > 10  # the shaper really pushed back
    assert max(lengths) == 1


def test_trace_scenario_keeps_one_entry_per_waiting_transport(monkeypatch):
    """The 10 ms ``repro trace`` mix with two class-A and two class-B
    tenants; waiting lists used to reach 93 entries here."""
    lengths = watch_waiters(monkeypatch)
    trace_cell(vms=12, bandwidth_mbps=1000.0, burst_kb=15.0,
               delay_us=1000.0, bmax_gbps=1.0, class_a=2, class_b=2,
               message_kb=15.0, epoch_us=2000.0, duration_ms=10.0,
               queue_interval_us=50.0, seed=0, pods=2, racks_per_pod=4,
               servers_per_rack=10, slots=8, link_gbps=10.0,
               oversubscription=5.0, buffer_kb=312.0)
    assert len(lengths) > 1000
    assert max(lengths) == 1
