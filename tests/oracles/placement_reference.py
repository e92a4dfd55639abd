"""The seed placement walk with curve-based admission: the placement oracle.

:class:`repro.placement.silo.SiloPlacementManager` admits with closed-form
port bounds and walks the hierarchy through cached per-domain summaries
that skip whatever cannot fit.  :class:`ReferenceSiloPlacementManager`
overrides each of those shortcuts with the seed's plain version -- linear
scans and sums, a server-by-server fill, a linear descent over per-server
VM counts, an uncached contribution per probe, and a Curve rebuilt for
every port check -- so ``tests/placement/test_fast_admission.py`` and
``benchmarks/bench_hotpaths.py`` can demand identical decisions and VM
layouts from both (and time the difference).

The module-level functions are the curve-based oracles for
:class:`repro.placement.state.PortState`'s closed-form bounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.core.tenant import TenantRequest
from repro.netcalc.bounds import backlog_bound, delay_bound
from repro.netcalc.service import RateLatencyService
from repro.placement.silo import SiloPlacementManager
from repro.placement.state import Contribution, PortState
from repro.topology.switch import PortKind
from repro.topology.tree import SCOPES


def _service(state: PortState) -> RateLatencyService:
    return RateLatencyService(rate=state.port.capacity)


def queue_bound_reference(state: PortState,
                          extra: Optional[Contribution] = None) -> float:
    """Curve-based oracle for :meth:`PortState.queue_bound`."""
    return delay_bound(state.aggregate_curve(extra), _service(state))


def backlog_reference(state: PortState,
                      extra: Optional[Contribution] = None) -> float:
    """Curve-based oracle for :meth:`PortState.backlog`."""
    return backlog_bound(state.aggregate_curve(extra), _service(state))


def admits_reference(state: PortState, extra: Contribution) -> bool:
    """Curve-based oracle for :meth:`PortState.admits`."""
    if state.bandwidth + extra.bandwidth > state.port.capacity:
        return False
    return backlog_reference(state, extra) <= state._buffer_limit


class ReferenceSiloPlacementManager(SiloPlacementManager):
    """Silo placement as seeded: same decisions, none of the shortcuts."""

    def _port_ok(self, state: PortState,
                 contribution: Contribution) -> bool:
        return admits_reference(state, contribution)

    def _find_assignment(self, request: TenantRequest
                         ) -> Optional[Dict[int, int]]:
        # No early exit when the cluster is short of slots: every scope
        # is searched and fails on its own.
        allowed = self._allowed_scope(request)
        if allowed is None:
            return None
        for scope in SCOPES[:SCOPES.index(allowed) + 1]:
            assignment = self._search_scope(request, scope)
            if assignment is not None:
                return assignment
        return None

    def _single_server_candidates(self, n_vms: int) -> Iterable[int]:
        return range(self.topology.n_servers)

    def _candidate_domains(self, scope: str, n_vms: int) -> Iterable[int]:
        topo = self.topology
        n_domains = {"rack": topo.n_racks, "pod": topo.n_pods}.get(scope, 1)
        for domain in range(n_domains):
            if sum(self.free_slots[s] for s in
                   self._domain_servers(scope, domain)) >= n_vms:
                yield domain

    def _domain_pristine_id(self, scope: str, domain: int) -> bool:
        full = self.topology.slots_per_server
        return all(self.free_slots[s] == full
                   for s in self._domain_servers(scope, domain))

    def _rack_pristine(self, rack: int) -> bool:
        # The fill never steps over a whole rack; it probes server by
        # server.
        return False

    def _max_vms_on_server(self, request: TenantRequest, server: int,
                           want: int, k_estimate: int, scope: str) -> int:
        for m in range(want, 0, -1):
            if self._server_ok(request, server, m, k_estimate, scope):
                return m
        return 0

    def _contribution(self, request: TenantRequest, m_senders: int,
                      k_servers: int, kind: PortKind,
                      scope: str = "cluster") -> Contribution:
        # Recomputed on every probe, never memoised, as the seed did:
        # this is the timing baseline of bench_hotpaths.
        contribution = super()._contribution(request, m_senders, k_servers,
                                             kind, scope)
        del self._contribution_memo[(m_senders, k_servers, kind.value,
                                     scope)]
        return contribution
