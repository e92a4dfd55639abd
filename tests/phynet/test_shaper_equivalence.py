"""The shipped shaper makes the linear-scan shaper's decisions, bit for bit.

:class:`repro.phynet.shaper.VMShaper` skips and memoizes work the plain
scan does (see its module docstring for the exact selection rule).  The
property below drives it and the reference
:class:`oracles.shaper_oracle.LinearScanShaper` through the same random
steps -- submits to up to twelve destinations with mixed and equal packet sizes,
releases that submit follow-up packets at the same instant, hose rate
changes, clock advances -- and asserts the same packets leave in the
same order at bit-equal times, with the same timer generations and the
same number of engine events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.engine import EventEngine
from repro.pacer.hierarchy import PacerConfig
from repro.phynet.shaper import VMShaper

from oracles.shaper_oracle import LinearScanShaper

# Power-of-two sizes, rates and times keep the bucket arithmetic exact,
# so distinct destinations often become eligible at exactly the same
# instant and the tie rule is exercised above the shared floor too.
SIZES = (64.0, 512.0, 1024.0, 1500.0, 1500.0)
RATES = (units.mbps(50), units.mbps(300), units.gbps(4), 2.0 ** 24,
         2.0 ** 26)
# Multiples of a 1500 B packet time at 1 Gbps, odd offsets and
# power-of-two steps, so that clock advances land both on and between
# release instants.
ADVANCES = (0.0, 1e-6, 6e-6, 12e-6, 25e-6, 1e-4, 2.0 ** -17, 2.0 ** -14)


class Pkt:
    """A packet as the shaper sees it, plus packets its release submits."""

    __slots__ = ("dst", "size", "follow")

    def __init__(self, dst, size, follow=()):
        self.dst = dst
        self.size = size
        self.follow = follow


class Driven:
    """One shaper on its own engine, logging ``(time, packet)`` releases."""

    def __init__(self, shaper_class, config):
        self.sim = EventEngine()
        self.log = []
        self.shaper = shaper_class(self.sim, config, release=self._release)

    def _release(self, packet):
        self.log.append((self.sim.now, packet))
        for follow in packet.follow:
            self.shaper.submit(follow)

    def state(self):
        return (self.log, self.shaper._generation, self.shaper.backlog,
                self.sim.pending_events)


STEP = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 11), st.sampled_from(SIZES),
              st.lists(st.tuples(st.integers(0, 11),
                                 st.sampled_from(SIZES)), max_size=2)),
    st.tuples(st.just("rate"), st.integers(0, 11), st.sampled_from(RATES)),
    st.tuples(st.just("advance"), st.sampled_from(ADVANCES)),
)


@settings(max_examples=200, deadline=None)
@given(bandwidth=st.sampled_from((units.mbps(500), units.gbps(1),
                                  units.gbps(2), 2.0 ** 27)),
       burst=st.sampled_from((1500.0, 4096.0, 15000.0)),
       peak_factor=st.sampled_from((1.0, 2.0, 10.0)),
       n_dest=st.integers(1, 12),
       steps=st.lists(STEP, min_size=1, max_size=40))
def test_releases_match_the_linear_scan(bandwidth, burst, peak_factor,
                                        n_dest, steps):
    config = PacerConfig(bandwidth=bandwidth, burst=burst,
                         peak_rate=peak_factor * bandwidth)
    fast = Driven(VMShaper, config)
    slow = Driven(LinearScanShaper, config)
    for step in steps:
        kind = step[0]
        if kind == "submit":
            _, dst, size, follows = step
            packet = Pkt(dst % n_dest, size,
                         tuple(Pkt(d % n_dest, s) for d, s in follows))
            fast.shaper.submit(packet)
            slow.shaper.submit(packet)
        elif kind == "rate":
            _, dst, rate = step
            fast.shaper.set_destination_rate(dst % n_dest, rate)
            slow.shaper.set_destination_rate(dst % n_dest, rate)
        else:
            until = fast.sim.now + step[1]
            fast.sim.run(until=until)
            slow.sim.run(until=until)
        assert fast.state() == slow.state()
    fast.sim.run()
    slow.sim.run()
    assert fast.state() == slow.state()
    assert fast.shaper.backlog == 0.0
    # Equal event counts leave the shared sequence counters level.
    assert fast.sim.next_seq() == slow.sim.next_seq()


def test_tie_at_the_tenant_floor_goes_to_the_first_seen_destination():
    """When the shared tenant bucket binds, every head ties at its
    floor and the destination seen first wins -- even though another
    destination's own bucket would let its packet out earlier.  Ordering
    by the earliest per-destination bucket would pick ``b`` here."""
    config = PacerConfig(bandwidth=units.gbps(1), burst=1500.0,
                         peak_rate=units.gbps(10))
    for shaper_class in (VMShaper, LinearScanShaper):
        driven = Driven(shaper_class, config)
        shaper = driven.shaper
        shaper.set_destination_rate("a", units.gbps(5))
        first = Pkt("a", 1500.0)
        shaper.submit(first)
        driven.sim.run(until=0.0)
        assert driven.log == [(0.0, first)]
        # The tenant bucket is empty: it refills 1500 B in 12 us.  a's
        # own bucket needs 2.4 us, b's and c's are full.
        b, c, a = Pkt("b", 1500.0), Pkt("c", 1500.0), Pkt("a", 1500.0)
        for packet in (b, c, a):
            shaper.submit(packet)
        own = {d: shaper.destination_bucket(d).would_stamp(1500.0, 0.0)
               for d in "abc"}
        floor = 1500.0 / units.gbps(1)
        assert own["b"] == own["c"] == 0.0 < own["a"] < floor
        driven.sim.run()
        assert [p for _, p in driven.log] == [first, a, b, c]
        assert driven.log[1][0] == floor


def test_tie_between_destination_buckets_goes_to_the_first_seen_one():
    """Two destination buckets that bind at exactly the same instant,
    above the shared floor: the destination seen first wins."""
    config = PacerConfig(bandwidth=2.0 ** 27, burst=1024.0,
                         peak_rate=10 * 2.0 ** 27)
    for shaper_class in (VMShaper, LinearScanShaper):
        driven = Driven(shaper_class, config)
        shaper = driven.shaper
        for dst in "ab":
            shaper.set_destination_rate(dst, 2.0 ** 20)
        a1, b1, a2, b2 = (Pkt("a", 512.0), Pkt("b", 512.0),
                          Pkt("a", 1024.0), Pkt("b", 1024.0))
        for packet in (a1, b1, a2, b2):
            shaper.submit(packet)
        driven.sim.run(until=0.0)
        # Both buckets hold 512 B and need 2**-11 s for the next 1 KB;
        # the tenant bucket needs only 2**-17 s.
        assert (shaper.destination_bucket("a").would_stamp(1024.0, 0.0)
                == shaper.destination_bucket("b").would_stamp(1024.0, 0.0)
                == 2.0 ** -11)
        driven.sim.run()
        assert driven.log == [(0.0, a1), (0.0, b1), (2.0 ** -11, a2),
                              (2.0 ** -11 + 2.0 ** -17, b2)]


def test_small_head_behind_a_large_one_leaves_while_only_it_fits():
    """The shared floor depends on the head's size: a 64 B head queued
    behind a 1500 B head in destination order goes first while the
    tenant bucket holds enough for it but not for the large one."""
    config = PacerConfig(bandwidth=2.0 ** 27, burst=1500.0,
                         peak_rate=10 * 2.0 ** 27)
    for shaper_class in (VMShaper, LinearScanShaper):
        driven = Driven(shaper_class, config)
        shaper = driven.shaper
        a1, a2, b1 = Pkt("a", 1024.0), Pkt("a", 1500.0), Pkt("b", 64.0)
        for packet in (a1, a2, b1):
            shaper.submit(packet)
        driven.sim.run()
        # After a1 the tenant bucket holds 476 B: enough for b1 at once;
        # a2 then waits for the 1088 B it is short.
        assert driven.log == [(0.0, a1), (0.0, b1),
                              (1088.0 / 2.0 ** 27, a2)]
