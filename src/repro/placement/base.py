"""Shared greedy first-fit placement machinery (section 4.2.3).

All three placement managers walk the hierarchy the same way -- try to fit
the whole tenant in one server, then one rack, then one pod, then anywhere
-- and differ only in (a) which admission check runs at each port and (b)
how wide the hierarchy they may use is (Silo caps the scope so that summed
queue capacities along any path stay within the delay guarantee).

Each scope is attempted with two fill strategies:

* **greedy**: pack each server as full as the per-server checks allow, which
  minimises the number of network links the tenant touches;
* **balanced**: spread VMs evenly over the domain's servers, which keeps the
  worst-case all-to-one burst convergence at any single port small (the
  paper's Fig. 5 example is exactly this situation).

A candidate assignment is then *validated*: the exact per-port contributions
(with the true number of sending servers behind each port) are recomputed
and checked against the current port state before committing.  Fill-time
checks are only heuristics to guide the search; validation is authoritative,
so admission is sound regardless of the estimates used while filling.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import units
from repro.core.tenant import Placement, TenantClass, TenantRequest
from repro.obs.events import AdmissionDecision
from repro.placement.audit import (
    CONSTRAINT_CAPACITY,
    CONSTRAINT_DELAY,
    CONSTRAINT_NONE,
    CONSTRAINT_QUEUE_BOUND,
    AdmissionAudit,
    AdmissionRecord,
)
from repro.placement.state import Contribution, PortState
from repro.topology.switch import PortKind
from repro.topology.tree import SCOPES, TreeTopology

#: The two fill strategies tried, in order, within every domain.
_STRATEGIES = ("greedy", "balanced")
# Hoisted enum values: contribution memo keys use the interned strings so
# lookups skip the Enum descriptor and Python-level __hash__.
_NIC_UP = PortKind.NIC_UP.value
_TOR_DOWN = PortKind.TOR_DOWN.value


class PlacementManager(abc.ABC):
    """Base class: slot accounting, greedy search, commit/remove."""

    def __init__(self, topology: TreeTopology,
                 min_fault_domains: int = 1,
                 hose_tightening: bool = True,
                 fast_paths: bool = True,
                 audit: Optional[AdmissionAudit] = None,
                 tracer=None) -> None:
        """Args:
            topology: the datacenter to place into.
            min_fault_domains: spread every tenant over at least this
                many servers (section 4.2.3's fault-tolerance constraint;
                1 disables spreading).
            hose_tightening: use the paper's tightened hose aggregate
                ``min(m, N-m) * B`` when summing tenant curves; disabling
                it falls back to the naive ``m * B`` (the ablation knob
                for how much admission capacity the tightening buys).
            fast_paths: use the optimized admission hot paths (closed-form
                port bounds, cached per-domain summaries that skip domains
                which cannot fit, binary search over per-server VM
                counts).  ``False`` falls back to the reference
                implementations -- kept as the cross-check oracle for
                ``benchmarks/bench_hotpaths.py``; both modes make
                identical admission decisions.
            audit: optional :class:`~repro.placement.audit.AdmissionAudit`
                recording every decision with its binding constraint.
            tracer: optional :class:`repro.obs.TraceSink`; each decision
                additionally emits an ``admission`` event.  Both are
                evaluated off the hot path (only after the search
                concludes) and default to off.
        """
        if min_fault_domains < 1:
            raise ValueError("min_fault_domains must be >= 1")
        self.topology = topology
        self.min_fault_domains = min_fault_domains
        self.hose_tightening = hose_tightening
        self.fast_paths = fast_paths
        self.states: Dict[int, PortState] = {
            port.port_id: PortState(port) for port in topology.ports
        }
        # Per-server port-state shortcuts and per-(kind, scope) upstream
        # queue capacities, hoisted out of the per-probe inner loop.
        self._nic_states: List[PortState] = [
            self.states[topology.nic_up(s).port_id]
            for s in range(topology.n_servers)]
        self._tor_down_states: List[PortState] = [
            self.states[topology.tor_down(s).port_id]
            for s in range(topology.n_servers)]
        self._upstream_qcap: Dict[Tuple[str, str], float] = {
            (kind.value, scope): topology.upstream_queue_capacity(kind,
                                                                  scope)
            for kind in set(p.kind for p in topology.ports)
            for scope in SCOPES
        }
        # Contributions depend only on (m, k, port kind, scope) within one
        # request; memoised per `place` call so repeated probes across the
        # servers of a domain cost one dict lookup.
        self._contribution_memo: Dict[Tuple[int, int, str, str],
                                      Contribution] = {}
        self.free_slots: List[int] = (
            [topology.slots_per_server] * topology.n_servers)
        # Cached free-slot totals per rack/pod/cluster plus per-domain
        # counts of *touched* (not fully free) servers; maintained by
        # _commit/remove so _search_scope can skip domains in O(1).
        full = topology.slots_per_server
        self._rack_free: List[int] = (
            [full * topology.servers_per_rack] * topology.n_racks)
        pod_servers = topology.racks_per_pod * topology.servers_per_rack
        self._pod_free: List[int] = [full * pod_servers] * topology.n_pods
        self._total_free: int = topology.n_slots
        self._rack_touched: List[int] = [0] * topology.n_racks
        self._pod_touched: List[int] = [0] * topology.n_pods
        # Per-rack largest free-slot count on any one server (server-scope
        # search skips racks whose best server cannot hold the tenant) and
        # per-rack count of reserve_capacity poisons on its servers' NIC-up
        # and ToR-down ports (a rack with none and no touched server is
        # wholly pristine, so a fill steps over it in one go).
        self._rack_best: List[int] = [full] * topology.n_racks
        self._rack_poisons: List[int] = [0] * topology.n_racks
        self.placements: Dict[int, Placement] = {}
        self._commits: Dict[int, List[Tuple[int, Contribution]]] = {}
        # Per-port ordered registry of every live contribution, keyed by
        # ("tenant", id) or ("reserve", name).  Release rebuilds a port's
        # totals by folding the survivors in commit order (dicts preserve
        # insertion order), which is bit-identical to a fresh port and
        # immune to float drift; see PortState.reset_totals.
        self._port_registry: Dict[int, Dict[Tuple[str, object],
                                            Contribution]] = {
            port_id: {} for port_id in self.states
        }
        # Cordoned (crashed / unreachable) servers: server -> slots
        # withheld from the free pool while cordoned.
        self._cordoned: Dict[int, int] = {}
        self.accepted = 0
        self.rejected = 0
        #: Monotonic counter bumped whenever any port's reservations
        #: change (commit, remove, reserve/release poisons).  Lets
        #: callers cache derived maps -- e.g. the fluid simulator's
        #: best-effort residual capacities -- and rebuild only on change.
        self.reservation_version = 0
        self.accepted_by_class: Dict[TenantClass, int] = {}
        self.rejected_by_class: Dict[TenantClass, int] = {}
        self.audit = audit
        self.tracer = tracer
        self._decision_seq = 0

    # -- hooks for subclasses -------------------------------------------------

    @abc.abstractmethod
    def _allowed_scope(self, request: TenantRequest) -> Optional[str]:
        """Widest scope this tenant may span; ``None`` rejects outright."""

    @abc.abstractmethod
    def _port_ok(self, state: PortState, contribution: Contribution) -> bool:
        """Whether a port can absorb one more tenant's contribution."""

    def _checks_ports(self) -> bool:
        """Whether this manager runs network checks at all."""
        return True

    # -- public API -------------------------------------------------------------

    def place(self, request: TenantRequest,
              now: Optional[float] = None) -> Optional[Placement]:
        """Admit and place a tenant; returns ``None`` on rejection.

        ``now`` (optional simulation time) only annotates the audit
        trail / admission events; it does not affect the decision.
        """
        self._contribution_memo.clear()
        return self._place_impl(request, now)

    def place_batch(self, requests: Sequence[TenantRequest],
                    now: Optional[float] = None
                    ) -> List[Optional[Placement]]:
        """Admit a batch of requests, amortizing the admission math.

        Contributions depend only on ``(n_vms, guarantee)``, so the
        batch is grouped by that signature and the per-request
        contribution memo is cleared once per *group* instead of once
        per request -- same-shaped requests (the common case in a
        request stream) share every closed-form bound computation.

        Requests are still admitted strictly one at a time against the
        live books (group by group, first-seen group order, original
        order within a group), so the decisions are identical to
        sequential :meth:`place` calls in that order.  Results come
        back in the input order.
        """
        results: List[Optional[Placement]] = [None] * len(requests)
        groups: Dict[Tuple[int, object], List[int]] = {}
        order: List[Tuple[int, object]] = []
        for i, request in enumerate(requests):
            signature = (request.n_vms, request.guarantee)
            if signature not in groups:
                groups[signature] = []
                order.append(signature)
            groups[signature].append(i)
        for signature in order:
            self._contribution_memo.clear()
            for i in groups[signature]:
                results[i] = self._place_impl(requests[i], now)
        return results

    def adopt(self, request: TenantRequest,
              assignment: Dict[int, int]) -> Placement:
        """Commit a known-good assignment without re-running admission.

        The crash-recovery redo path: a write-ahead log replays each
        admitted request with the assignment the original search chose,
        and ``adopt`` re-commits it.  Contributions are recomputed by
        the same pure function :meth:`_port_contributions` used at
        admission time, so the registry entries (and therefore every
        port's folded totals) are bit-identical to the original commit.
        Raises if the tenant is already placed or the slots are gone.
        """
        if request.tenant_id in self.placements:
            raise ValueError(f"tenant {request.tenant_id} is already placed")
        self._contribution_memo.clear()
        placement = self._commit(request, dict(assignment))
        self._count(request, admitted=True)
        return placement

    def _place_impl(self, request: TenantRequest,
                    now: Optional[float]) -> Optional[Placement]:
        """The body of :meth:`place`, minus the memo clear (so batched
        admission can share the memo across same-signature requests)."""
        if request.tenant_id in self.placements:
            raise ValueError(f"tenant {request.tenant_id} is already placed")
        assignment = self._find_assignment(request)
        if assignment is None:
            self._count(request, admitted=False)
            if self.audit is not None or self.tracer is not None:
                self._record_decision(request, None, now)
            return None
        placement = self._commit(request, assignment)
        self._count(request, admitted=True)
        if self.audit is not None or self.tracer is not None:
            self._record_decision(request, assignment, now)
        return placement

    def _record_decision(self, request: TenantRequest,
                         assignment: Optional[Dict[int, int]],
                         now: Optional[float]) -> None:
        """Append the decision to the audit trail and/or trace stream.

        Runs only after the search concluded, so classification can use
        cheap re-checks against cached state instead of instrumenting the
        admission inner loop.
        """
        if assignment is not None:
            constraint = CONSTRAINT_NONE
            scope: Optional[str] = self._assignment_scope(assignment)
        else:
            constraint = self._rejection_constraint(request)
            scope = None
        seq = self._decision_seq
        self._decision_seq += 1
        klass = request.tenant_class.name
        if self.audit is not None:
            self.audit.append(AdmissionRecord(
                seq=seq, tenant_id=request.tenant_id, n_vms=request.n_vms,
                tenant_class=klass, admitted=assignment is not None,
                constraint=constraint, scope=scope, time=now))
        if self.tracer is not None:
            self.tracer.emit(AdmissionDecision(
                time=now, tenant_id=request.tenant_id,
                n_vms=request.n_vms, tenant_class=klass,
                admitted=assignment is not None, constraint=constraint,
                scope=scope))

    def _rejection_constraint(self, request: TenantRequest) -> str:
        """Which constraint bound a rejection (see
        :mod:`repro.placement.audit`).

        ``delay`` maps to the paper's second queueing constraint (summed
        queue capacities along the path must stay within the delay
        guarantee): either no scope satisfies it at all, or the scope it
        allows is too narrow to hold the tenant even though slots exist
        elsewhere.  ``queue_bound`` is the residual class: slots existed
        within an allowed scope yet no arrangement passed the per-port
        checks (for managers without port checks it also covers
        structural failures such as fault-domain spreading).
        """
        allowed = self._allowed_scope(request)
        if allowed is None:
            return CONSTRAINT_DELAY
        if self._total_free < request.n_vms:
            return CONSTRAINT_CAPACITY
        if not self._scope_has_room(allowed, request.n_vms):
            return CONSTRAINT_DELAY
        return CONSTRAINT_QUEUE_BOUND

    def _scope_has_room(self, scope: str, n_vms: int) -> bool:
        """Whether any single domain of ``scope`` has ``n_vms`` free slots.

        Only consulted off the hot path (rejection classification); the
        per-rack best-server summary answers the server scope without a
        server scan.
        """
        if scope == "cluster":
            return True  # the caller already checked _total_free
        if scope == "server":
            return any(best >= n_vms for best in self._rack_best)
        return any(True for _ in self._candidate_domains(scope, n_vms))

    def remove(self, tenant_id: int) -> None:
        """Release a tenant's slots and reservations (exactly).

        Every affected port's totals are rebuilt from the surviving
        registry entries rather than decremented, so release is exact:
        the port ends bit-identical to one that never saw the tenant
        (the placement property tests pin this).  Slots returning to a
        cordoned server stay withheld from the free pool.
        """
        placement = self.placements.pop(tenant_id, None)
        if placement is None:
            raise KeyError(f"tenant {tenant_id} is not placed")
        for server, count in placement.vms_per_server().items():
            self._change_slots(server, count)
            if server in self._cordoned:
                self._change_slots(server, -count)
                self._cordoned[server] += count
        key = ("tenant", tenant_id)
        for port_id, _contribution in self._commits.pop(tenant_id):
            registry = self._port_registry[port_id]
            del registry[key]
            self.states[port_id].reset_totals(registry.values())
        self.reservation_version += 1

    def _change_slots(self, server: int, delta: int) -> None:
        """Adjust one server's free slots and every cached total."""
        topo = self.topology
        before = self.free_slots[server]
        after = before + delta
        self.free_slots[server] = after
        rack = server // topo.servers_per_rack
        pod = rack // topo.racks_per_pod
        self._rack_free[rack] += delta
        self._pod_free[pod] += delta
        self._total_free += delta
        full = topo.slots_per_server
        if before == full and after < full:
            self._rack_touched[rack] += 1
            self._pod_touched[pod] += 1
        elif before < full and after == full:
            self._rack_touched[rack] -= 1
            self._pod_touched[pod] -= 1
        best = self._rack_best[rack]
        if after > best:
            self._rack_best[rack] = after
        elif before == best and after < before:
            # The server holding the rack's maximum shrank: rescan the rack.
            start = rack * topo.servers_per_rack
            self._rack_best[rack] = max(
                self.free_slots[start:start + topo.servers_per_rack])

    def _rebuild_caches(self) -> None:
        """Recompute every per-domain summary from ``free_slots`` and the
        port registry (snapshot restore loads those two raw)."""
        topo = self.topology
        full = topo.slots_per_server
        per_rack = topo.servers_per_rack
        self._rack_free = [0] * topo.n_racks
        self._pod_free = [0] * topo.n_pods
        self._rack_touched = [0] * topo.n_racks
        self._pod_touched = [0] * topo.n_pods
        self._rack_best = [0] * topo.n_racks
        self._rack_poisons = [0] * topo.n_racks
        for server, free in enumerate(self.free_slots):
            rack = server // per_rack
            pod = rack // topo.racks_per_pod
            self._rack_free[rack] += free
            self._pod_free[pod] += free
            self._rack_best[rack] = max(self._rack_best[rack], free)
            if free < full:
                self._rack_touched[rack] += 1
                self._pod_touched[pod] += 1
        self._total_free = sum(self._rack_free)
        for port_id, registry in self._port_registry.items():
            rack = self._poison_rack(port_id)
            if rack is not None:
                self._rack_poisons[rack] += sum(
                    1 for key in registry if key[0] == "reserve")

    def _poison_rack(self, port_id: int) -> Optional[int]:
        """Rack whose servers a poison at ``port_id`` makes non-pristine:
        set for NIC-up and ToR-down ports, ``None`` for fabric ports."""
        port = self.states[port_id].port
        if port.kind is PortKind.NIC_UP or port.kind is PortKind.TOR_DOWN:
            return port.index // self.topology.servers_per_rack
        return None

    def _rack_pristine(self, rack: int) -> bool:
        """True when every server of ``rack`` is pristine: all slots free
        and nothing reserved at its NIC-up or ToR-down port."""
        return self._rack_touched[rack] == 0 and self._rack_poisons[rack] == 0

    # -- fault integration -------------------------------------------------------

    def cordon_server(self, server: int) -> int:
        """Withhold a crashed server's free slots from placement.

        Returns the number of slots withheld.  Idempotent; slots released
        onto a cordoned server later (see :meth:`remove`) stay withheld
        until :meth:`uncordon_server`.
        """
        if not 0 <= server < self.topology.n_servers:
            raise ValueError(f"server {server} out of range")
        if server in self._cordoned:
            return 0
        free = self.free_slots[server]
        if free:
            self._change_slots(server, -free)
        self._cordoned[server] = free
        return free

    def uncordon_server(self, server: int) -> int:
        """Return a repaired server's withheld slots to the free pool."""
        freed = self._cordoned.pop(server, 0)
        if freed:
            self._change_slots(server, freed)
        return freed

    @property
    def cordoned_servers(self) -> List[int]:
        """Ids of servers currently fenced off from placement."""
        return sorted(self._cordoned)

    def reserve_capacity(self, port_id: int, contribution: Contribution,
                         key: str) -> None:
        """Register a non-tenant reservation (a fault "poison") at a port.

        Degraded-mode admission works by reserving the *lost* fraction of
        a faulted port's capacity through the same registry tenant
        commits use, so the existing admission checks automatically
        reject placements the degraded port cannot carry -- and exact
        release keeps working (a rebuild folds poisons like any other
        contribution).
        """
        registry = self._port_registry[port_id]
        rkey = ("reserve", key)
        if rkey in registry:
            raise ValueError(f"reservation {key!r} already held "
                             f"at port {port_id}")
        registry[rkey] = contribution
        self.states[port_id].add(contribution)
        rack = self._poison_rack(port_id)
        if rack is not None:
            self._rack_poisons[rack] += 1
        self.reservation_version += 1

    def release_capacity(self, port_id: int, key: str) -> None:
        """Drop a :meth:`reserve_capacity` reservation, rebuilding exactly."""
        registry = self._port_registry[port_id]
        rkey = ("reserve", key)
        if rkey not in registry:
            raise KeyError(f"no reservation {key!r} at port {port_id}")
        del registry[rkey]
        self.states[port_id].reset_totals(registry.values())
        rack = self._poison_rack(port_id)
        if rack is not None:
            self._rack_poisons[rack] -= 1
        self.reservation_version += 1

    def tenants_crossing(self, port_id: int) -> List[int]:
        """Tenants with a committed contribution at ``port_id``."""
        return [key[1] for key in self._port_registry[port_id]
                if key[0] == "tenant"]

    def tenants_on_server(self, server: int) -> List[int]:
        """Tenants with at least one VM placed on ``server``."""
        return [tid for tid, placement in self.placements.items()
                if server in placement.vms_per_server()]

    @property
    def used_slots(self) -> int:
        """VM slots currently occupied."""
        return self.topology.n_slots - self._total_free

    @property
    def occupancy(self) -> float:
        """Fraction of VM slots currently in use."""
        return self.used_slots / self.topology.n_slots

    def admitted_fraction(self, tenant_class: Optional[TenantClass] = None
                          ) -> float:
        """Fraction of requests admitted, overall or per class."""
        if tenant_class is None:
            total = self.accepted + self.rejected
            return self.accepted / total if total else 1.0
        acc = self.accepted_by_class.get(tenant_class, 0)
        rej = self.rejected_by_class.get(tenant_class, 0)
        return acc / (acc + rej) if acc + rej else 1.0

    # -- search ------------------------------------------------------------------

    def _find_assignment(self, request: TenantRequest
                         ) -> Optional[Dict[int, int]]:
        allowed = self._allowed_scope(request)
        if allowed is None:
            return None
        if self.fast_paths and self._total_free < request.n_vms:
            return None  # not enough slots anywhere: every scope fails
        for scope in SCOPES[:SCOPES.index(allowed) + 1]:
            assignment = self._search_scope(request, scope)
            if assignment is not None:
                return assignment
        return None

    def _search_scope(self, request: TenantRequest, scope: str
                      ) -> Optional[Dict[int, int]]:
        if scope == "server":
            if self.min_fault_domains > 1 and request.n_vms > 1:
                return None  # a lone server is a single fault domain
            for server in self._single_server_candidates(request.n_vms):
                if self.free_slots[server] >= request.n_vms:
                    assignment = {server: request.n_vms}
                    if self._validate(request, assignment):
                        return assignment
            return None
        pristine_failed = False
        for domain in self._candidate_domains(scope, request.n_vms):
            pristine = self._domain_pristine_id(scope, domain)
            if pristine_failed and pristine:
                # An identical untouched domain already failed; all empty
                # domains of this scope are interchangeable.
                continue
            servers = self._domain_servers(scope, domain)
            available = [s for s in servers if self.free_slots[s] > 0]
            for strategy in _STRATEGIES:
                assignment = self._fill(request, available, strategy,
                                        scope)
                if assignment and self._validate(request, assignment):
                    return assignment
            if pristine:
                pristine_failed = True
        return None

    def _single_server_candidates(self, n_vms: int) -> Iterable[int]:
        """Servers worth probing for a whole-tenant single-server fit.

        The fast path yields nothing for a tenant wider than one server,
        and otherwise walks only the racks whose best server (the cached
        per-rack maximum of free slots) can hold the tenant -- O(1) per
        skipped rack, in the same server order.  The slow path scans all
        servers (the seed behaviour).
        """
        topo = self.topology
        if not self.fast_paths:
            yield from range(topo.n_servers)
            return
        if n_vms > topo.slots_per_server:
            return
        per_rack = topo.servers_per_rack
        for rack, best in enumerate(self._rack_best):
            if best >= n_vms:
                start = rack * per_rack
                yield from range(start, start + per_rack)

    def _candidate_domains(self, scope: str, n_vms: int) -> Iterable[int]:
        """Domains of a rack/pod/cluster ``scope`` with at least ``n_vms``
        free slots, in first-fit order.

        The fast path reads the cached per-domain totals, and for racks
        walks pods first, skipping every pod short of ``n_vms`` before
        looking at its racks (a rack never has more free slots than its
        pod).  The slow path sums every domain's servers.
        """
        topo = self.topology
        if not self.fast_paths:
            n_domains = {"rack": topo.n_racks, "pod": topo.n_pods}.get(
                scope, 1)
            for domain in range(n_domains):
                if sum(self.free_slots[s] for s in
                       self._domain_servers(scope, domain)) >= n_vms:
                    yield domain
            return
        if scope == "rack":
            rack_free = self._rack_free
            per_pod = topo.racks_per_pod
            for pod, free in enumerate(self._pod_free):
                if free >= n_vms:
                    start = pod * per_pod
                    for rack in range(start, start + per_pod):
                        if rack_free[rack] >= n_vms:
                            yield rack
        elif scope == "pod":
            for pod, free in enumerate(self._pod_free):
                if free >= n_vms:
                    yield pod
        elif self._total_free >= n_vms:
            yield 0

    def _domain_servers(self, scope: str, domain: int) -> Sequence[int]:
        topo = self.topology
        if scope == "rack":
            return list(topo.servers_in_rack(domain))
        if scope == "pod":
            return list(topo.servers_in_pod(domain))
        return list(range(topo.n_servers))

    def _domain_pristine_id(self, scope: str, domain: int) -> bool:
        """True when no server in the domain hosts anything yet."""
        if self.fast_paths:
            if scope == "rack":
                return self._rack_touched[domain] == 0
            if scope == "pod":
                return self._pod_touched[domain] == 0
            return self._total_free == self.topology.n_slots
        return self._domain_pristine(self._domain_servers(scope, domain))

    def _domain_pristine(self, servers: Sequence[int]) -> bool:
        """True when no server in the domain hosts anything yet."""
        full = self.topology.slots_per_server
        return all(self.free_slots[s] == full for s in servers)

    def _fill(self, request: TenantRequest, available: Sequence[int],
              strategy: str, scope: str) -> Optional[Dict[int, int]]:
        """Distribute all N VMs over the ``available`` (non-full) servers;
        ``None`` if they don't fit."""
        remaining = request.n_vms
        assignment: Dict[int, int] = {}
        n_available = len(available)
        k_estimate = max(1, n_available - 1)
        full = self.topology.slots_per_server
        per_rack = self.topology.servers_per_rack
        pristine_failed = False
        position = -1
        while remaining and position + 1 < n_available:
            position += 1
            server = available[position]
            # The pristine flag is only consulted on failure paths, so it
            # is evaluated lazily: servers that accept VMs (the common
            # case) never touch the port states.
            pristine: Optional[bool] = None
            if pristine_failed:
                if (self.fast_paths and server % per_rack == 0
                        and self._rack_pristine(server // per_rack)):
                    # Every server of a wholly pristine rack has free
                    # slots, so the rack sits contiguously in `available`
                    # and each of its servers would be skipped below.
                    position += per_rack - 1
                    continue
                pristine = self._server_pristine(server, full)
                if pristine:
                    continue  # identical to an empty server that failed
            want = min(remaining, self.free_slots[server])
            if self.min_fault_domains > 1:
                want = min(want, math.ceil(request.n_vms
                                           / self.min_fault_domains))
            if strategy == "balanced":
                servers_left = n_available - position
                want = min(want, math.ceil(remaining / servers_left))
            placed = self._max_vms_on_server(request, server, want,
                                             k_estimate, scope)
            if placed:
                assignment[server] = placed
                remaining -= placed
            else:
                if pristine is None:
                    pristine = self._server_pristine(server, full)
                if pristine:
                    pristine_failed = True
        if remaining:
            return None
        return assignment

    def _server_pristine(self, server: int, full: int) -> bool:
        return (self.free_slots[server] == full
                and self._nic_states[server].is_empty
                and self._tor_down_states[server].is_empty)

    def _max_vms_on_server(self, request: TenantRequest, server: int,
                           want: int, k_estimate: int, scope: str) -> int:
        """Largest ``m <= want`` passing this server's two port checks."""
        if not self._checks_ports():
            return want
        if self._server_ok(request, server, want, k_estimate, scope):
            return want  # uncongested common case: one probe
        if want <= 1:
            return 0
        if self.fast_paths and 2 * want <= request.n_vms:
            # Monotone regime: every probed m sits on the rising half of
            # the tightened hose min(m, N-m), so the uplink contribution
            # grows componentwise with m and ok(m) is non-increasing, and
            # the largest passing m binary-searches in O(log want).  (The
            # downlink check mixes a growing bandwidth term with shrinking
            # burst/slack terms; bench_hotpaths and the placement property
            # tests assert fast/reference decisions stay identical.)
            lo, hi = 0, want - 1  # lo: known-good floor (0 = none)
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if self._server_ok(request, server, mid, k_estimate,
                                   scope):
                    lo = mid
                else:
                    hi = mid - 1
            return lo
        for m in range(want - 1, 0, -1):
            if self._server_ok(request, server, m, k_estimate, scope):
                return m
        return 0

    def _server_ok(self, request: TenantRequest, server: int, m: int,
                   k_estimate: int, scope: str) -> bool:
        # The memo probes are inlined (rather than going through
        # _contribution) because this runs for every (server, m) the fill
        # loop tries; _contribution still owns the miss path and stores
        # under the same (m, k, kind.value, scope) keys.
        memo = self._contribution_memo
        up = memo.get((m, 1, _NIC_UP, scope))
        if up is None:
            up = self._contribution(request, m, 1, PortKind.NIC_UP, scope)
        if not self._port_ok(self._nic_states[server], up):
            return False
        n_other = request.n_vms - m
        down = memo.get((n_other, k_estimate, _TOR_DOWN, scope))
        if down is None:
            down = self._contribution(request, n_other, k_estimate,
                                      PortKind.TOR_DOWN, scope)
        return self._port_ok(self._tor_down_states[server], down)

    # -- validation and commit ------------------------------------------------------

    def _validate(self, request: TenantRequest,
                  assignment: Dict[int, int]) -> bool:
        if not self._checks_ports():
            return True
        for port_id, contribution in self._port_contributions(request,
                                                              assignment):
            if not self._port_ok(self.states[port_id], contribution):
                return False
        return True

    def _commit(self, request: TenantRequest,
                assignment: Dict[int, int]) -> Placement:
        vm_servers: List[int] = []
        for server, count in sorted(assignment.items()):
            if count > self.free_slots[server]:
                raise RuntimeError("assignment exceeds free slots")
            self._change_slots(server, -count)
            vm_servers.extend([server] * count)
        commits = list(self._port_contributions(request, assignment))
        key = ("tenant", request.tenant_id)
        for port_id, contribution in commits:
            self.states[port_id].add(contribution)
            self._port_registry[port_id][key] = contribution
        placement = Placement(request=request, vm_servers=vm_servers)
        self.placements[request.tenant_id] = placement
        self._commits[request.tenant_id] = commits
        self.reservation_version += 1
        return placement

    def _port_contributions(self, request: TenantRequest,
                            assignment: Dict[int, int]
                            ) -> Iterable[Tuple[int, Contribution]]:
        """Exact per-port contributions for a complete assignment.

        Yields ``(port_id, contribution)`` for every port that carries this
        tenant's traffic, with the true sending-server counts behind each
        port.  Used both to validate and to commit/release, so reservations
        always balance.
        """
        if request.guarantee is None or not self._checks_ports():
            return
        topo = self.topology
        n = request.n_vms
        servers = sorted(assignment)
        if len(servers) <= 1:
            return  # same-server traffic never crosses a network port
        scope = self._assignment_scope(assignment)
        racks: Dict[int, int] = {}
        pods: Dict[int, int] = {}
        rack_servers: Dict[int, int] = {}
        pod_servers: Dict[int, int] = {}
        for server, count in assignment.items():
            rack = topo.rack_of(server)
            pod = topo.pod_of(server)
            racks[rack] = racks.get(rack, 0) + count
            pods[pod] = pods.get(pod, 0) + count
            rack_servers[rack] = rack_servers.get(rack, 0) + 1
            pod_servers[pod] = pod_servers.get(pod, 0) + 1
        n_servers_used = len(servers)

        for server, count in assignment.items():
            up_port = topo.nic_up(server)
            yield up_port.port_id, self._contribution(
                request, count, 1, up_port.kind, scope)
            down_port = topo.tor_down(server)
            yield down_port.port_id, self._contribution(
                request, n - count, n_servers_used - 1, down_port.kind,
                scope)
        if len(racks) > 1:
            for rack, count in racks.items():
                up = topo.tor_up(rack)
                yield up.port_id, self._contribution(
                    request, count, rack_servers[rack], up.kind, scope)
                down = topo.agg_down(rack)
                yield down.port_id, self._contribution(
                    request, n - count, n_servers_used - rack_servers[rack],
                    down.kind, scope)
        if len(pods) > 1:
            for pod, count in pods.items():
                up = topo.agg_up(pod)
                yield up.port_id, self._contribution(
                    request, count, pod_servers[pod], up.kind, scope)
                down = topo.core_down(pod)
                yield down.port_id, self._contribution(
                    request, n - count, n_servers_used - pod_servers[pod],
                    down.kind, scope)

    def _assignment_scope(self, assignment: Dict[int, int]) -> str:
        """How widely an assignment spreads: server/rack/pod/cluster."""
        topo = self.topology
        servers = list(assignment)
        if len(servers) == 1:
            return "server"
        racks = {topo.rack_of(s) for s in servers}
        if len(racks) == 1:
            return "rack"
        pods = {topo.pod_of(s) for s in servers}
        return "pod" if len(pods) == 1 else "cluster"

    def _contribution(self, request: TenantRequest, m_senders: int,
                      k_servers: int, kind: PortKind,
                      scope: str = "cluster") -> Contribution:
        """Hose-model contribution of ``m`` sender VMs at one port kind.

        Bandwidth follows the tightened hose aggregate
        ``min(m, N-m) * B``; bursts are not destination-limited so all
        ``m`` senders may burst at once (``m * S``), inflated by worst-case
        upstream bunching; the burst drain rate is capped by the senders'
        physical links (``k_servers`` NICs).

        Within one ``place`` call the result depends only on
        ``(m_senders, k_servers, kind, scope)``, so it is memoised per
        request (the memo is cleared on entry to :meth:`place`).
        """
        if self.fast_paths:
            # Keyed by kind.value: hashing an Enum member goes through a
            # Python-level __hash__, hashing its interned string does not.
            key = (m_senders, k_servers, kind.value, scope)
            cached = self._contribution_memo.get(key)
            if cached is not None:
                return cached
            upstream = self._upstream_qcap[(kind.value, scope)]
        else:
            # Reference mode recomputes from the topology every time, as
            # the seed implementation did (kept as the timing baseline).
            key = None
            upstream = self.topology.upstream_queue_capacity(kind, scope)
        guarantee = request.guarantee
        n = request.n_vms
        if guarantee is None or m_senders <= 0 or m_senders >= n:
            contribution = Contribution(0.0, 0.0, 0.0, 0.0)
        else:
            if self.hose_tightening:
                bandwidth = (min(m_senders, n - m_senders)
                             * guarantee.bandwidth)
            else:
                bandwidth = m_senders * guarantee.bandwidth
            slack = m_senders * units.MTU
            burst = (m_senders * guarantee.burst + bandwidth * upstream)
            burst = max(burst, slack)
            raw_peak = m_senders * guarantee.effective_peak_rate
            capped = min(raw_peak,
                         max(k_servers, 1) * self.topology.link_rate)
            peak = max(bandwidth, capped)
            contribution = Contribution(bandwidth=bandwidth, burst=burst,
                                        peak_rate=peak, packet_slack=slack)
        if key is not None:
            self._contribution_memo[key] = contribution
        return contribution

    # -- bookkeeping ---------------------------------------------------------------

    def _count(self, request: TenantRequest, admitted: bool) -> None:
        bucket = (self.accepted_by_class if admitted
                  else self.rejected_by_class)
        bucket[request.tenant_class] = bucket.get(request.tenant_class,
                                                  0) + 1
        if admitted:
            self.accepted += 1
        else:
            self.rejected += 1
