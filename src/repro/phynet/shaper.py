"""Event-driven hierarchical shaper: the pacer as it runs in the hypervisor.

:class:`~repro.pacer.hierarchy.VMPacer` stamps packets in FIFO order, which
is exact for a single stream (and is how the Fig. 10 microbenchmarks use
it).  A VM talking to several destinations needs real scheduler semantics:
per-destination queues whose head packets compete for the shared tenant and
peak buckets, served in *eligibility* order -- otherwise one backlogged
destination would delay traffic to idle destinations through the shared
buckets.

:class:`VMShaper` implements exactly that: it holds one FIFO per
destination, computes for each head packet the earliest instant all three
Fig. 8 buckets allow it out, releases the globally earliest, and re-arms.
Aggregate output conforms to ``{B, S}``, per-destination output to its
hose rate ``B_d``, and consecutive releases are spaced at ``Bmax``.

The selection rule, exactly: a head packet's *eligible time* is the
largest of the three buckets' ``would_stamp`` answers for it, and the
shaper picks, among the non-empty queues in the order their
destinations were first seen, the *first* one whose eligible time is
strictly the smallest.  When the shared tenant or peak bucket
binds, several destinations tie at that floor and the earliest-seen one
wins, whatever its own bucket says.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Dict, Hashable, Optional, Tuple

from repro.core.engine import EventEngine
from repro.pacer.hierarchy import PacerConfig
from repro.pacer.token_bucket import TokenBucket

#: Slack when testing head-packet eligibility against the current clock:
#: absorbs float error from the schedule()/now round trip.  Simulation
#: times stay near zero, so an absolute epsilon is the right shape here
#: (a relative one would vanish at t=0).
_TIME_EPS = 1e-12


class VMShaper:
    """Hierarchical token-bucket scheduler for one VM's egress."""

    def __init__(self, sim: EventEngine, config: PacerConfig,
                 release: Callable[[Any], None]):
        self.sim = sim
        self.config = config
        self._release = release
        self._queues: Dict[Hashable, Deque[Any]] = {}
        self._dest_buckets: Dict[Hashable, TokenBucket] = {}
        # ``(now, destination, eligible)`` of the last scan.  A scan reads
        # only the clock, the queue heads and the buckets, so its answer
        # stands until one of them moves; a new head, a release and a
        # rate change drop it.
        self._last_scan: Optional[Tuple[float, Any, float]] = None
        self._tenant = TokenBucket(config.bandwidth, config.burst,
                                   sim.now)
        self._peak = TokenBucket(config.peak_rate, config.packet_size,
                                 sim.now)
        self._generation = 0
        self._armed_at: Optional[float] = None
        self.backlog = 0.0
        self._dest_backlog: Dict[Hashable, float] = {}
        #: Optional :class:`repro.obs.TimeSeries` recording the shaper's
        #: total backlog (bytes awaiting their token-bucket stamps) on
        #: every submit/release.
        self.backlog_series = None

    # -- configuration ------------------------------------------------------

    def destination_bucket(self, destination: Hashable) -> TokenBucket:
        """The per-destination token bucket, created on first use.

        Read it freely; change it only through
        :meth:`set_destination_rate`, which keeps the schedule in step.
        """
        bucket = self._dest_buckets.get(destination)
        if bucket is None:
            bucket = TokenBucket(self.config.bandwidth, self.config.burst,
                                 self.sim.now)
            self._dest_buckets[destination] = bucket
        return bucket

    def set_destination_rate(self, destination: Hashable,
                             rate: float) -> None:
        """Apply a hose coordination decision (Fig. 8's ``B_i``)."""
        self.destination_bucket(destination).set_rate(rate, self.sim.now)
        self._last_scan = None
        self._reschedule()

    # -- data path -------------------------------------------------------------

    def destination_backlog(self, destination: Hashable) -> float:
        """Bytes queued in the shaper for one destination."""
        return self._dest_backlog.get(destination, 0.0)

    def submit(self, packet: Any) -> None:
        """Queue a packet for its destination and re-evaluate the schedule."""
        queue = self._queues.get(packet.dst)
        if queue is None:
            queue = deque()
            self._queues[packet.dst] = queue
            self.destination_bucket(packet.dst)  # the scan reads it directly
        if not queue:
            self._last_scan = None
        queue.append(packet)
        self.backlog += packet.size
        self._dest_backlog[packet.dst] = (
            self._dest_backlog.get(packet.dst, 0.0) + packet.size)
        if self.backlog_series is not None:
            self.backlog_series.record(self.sim.now, self.backlog)
        self._reschedule()

    def _best_candidate(self) -> Tuple[Optional[Hashable], float]:
        """The destination whose head goes next, and its eligible time.

        Applies the module's selection rule.  Token balances only grow
        until a debit, so the three per-bucket times combine with
        ``max``; the tenant/peak part (the *floor*) is shared by every
        head of one size and is computed once per size.  A head whose
        floor is not below the best time so far cannot win and is
        skipped unasked, and since no eligible time is earlier than
        ``now``, the first head eligible at ``now`` ends the scan.  The
        answer is kept for later calls at the same ``now`` until the
        queue heads or the buckets change.
        """
        now = self.sim.now
        last = self._last_scan
        if last is not None and last[0] == now:
            return last[1], last[2]
        tenant = self._tenant
        peak = self._peak
        buckets = self._dest_buckets
        floors: Dict[float, float] = {}
        best_dest = None
        best_time = math.inf
        for destination, queue in self._queues.items():
            if not queue:
                continue
            size = queue[0].size
            floor = floors.get(size)
            if floor is None:
                floor = max(tenant.would_stamp(size, now),
                            peak.would_stamp(size, now))
                floors[size] = floor
            if floor >= best_time:
                continue  # cannot be strictly earlier than the best
            own = buckets[destination].would_stamp(size, now)
            eligible = own if own > floor else floor
            if eligible < best_time:
                best_dest = destination
                best_time = eligible
                if eligible == now:
                    break
        self._last_scan = (now, best_dest, best_time)
        return best_dest, best_time

    def _reschedule(self) -> None:
        destination, eligible = self._best_candidate()
        if destination is None:
            return
        if self._armed_at is not None and self._armed_at <= eligible:
            return  # an earlier-or-equal wakeup is already pending
        self._arm(eligible)

    def _arm(self, eligible: float) -> None:
        self._generation += 1
        self._armed_at = eligible
        self.sim.schedule(max(0.0, eligible - self.sim.now), self._fire,
                          self._generation)

    def _fire(self, generation: int) -> None:
        if generation != self._generation:
            return
        self._armed_at = None
        destination, eligible = self._best_candidate()
        if destination is None:
            return
        now = self.sim.now
        if eligible > now + _TIME_EPS:
            self._arm(eligible)
            return
        queue = self._queues[destination]
        packet = queue.popleft()
        self._last_scan = None
        self.backlog -= packet.size
        self._dest_backlog[destination] -= packet.size
        self._dest_buckets[destination].stamp(packet.size, now)
        self._tenant.stamp(packet.size, now)
        self._peak.stamp(packet.size, now)
        if self.backlog_series is not None:
            self.backlog_series.record(now, self.backlog)
        self._release(packet)
        self._reschedule()
