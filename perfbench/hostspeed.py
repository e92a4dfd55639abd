"""How fast the host runs Python right now, from a fixed reference kernel.

The benchmark shares its host with other tenants.  Besides spells of
about a second, which the per-segment minima in ``run.py`` absorb, the
host also slows down for minutes at a time: every pass of a 28-second
run can be 1.4x slower than the same pass a few minutes later.  No
statistic over one run's passes can see that, so ``run.py`` times this
kernel between passes and scales its times by how much slower than
:data:`REFERENCE_S` the kernel's fastest repetition ran.

The kernel is a small discrete-event loop -- a heap of events, slotted
objects, a dict of short lists -- because the program's own hot paths
are made of the same operations, and a slowdown of the host hits them
alike.  It touches nothing in ``src/``, so a change to the program
cannot move it.  Neither the kernel nor :data:`REFERENCE_S` may change
between two commits whose figures are compared.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import List

#: The kernel's fastest repetition on the host the bounds were set on
#: (a 2-CPU KVM guest on a Xeon, Python 3.11.7), in seconds.  It only
#: sets the scale: figures read as seconds on that host when quiet.
REFERENCE_S = 0.0070

#: Events popped per repetition, and events kept pending.
_EVENTS = 6000
_PENDING = 500
_KEYS = 97


class _Event:
    __slots__ = ("time", "key", "data")

    def __init__(self, time: float, key: int, data: dict) -> None:
        self.time = time
        self.key = key
        self.data = data


def kernel() -> int:
    """One repetition: pop the earliest event, update the per-key
    history it names, schedule its successor."""
    rng = random.Random(1)
    heap: list = []
    history: dict = {}
    seq = 0
    for i in range(_PENDING):
        seq += 1
        heapq.heappush(heap, (rng.random(), seq,
                              _Event(0.0, i % _KEYS, {"n": i})))
    for _ in range(_EVENTS):
        when, _, event = heapq.heappop(heap)
        recent = history.setdefault(event.key, [])
        recent.append(event.data["n"])
        if len(recent) > 8:
            recent.pop(0)
        seq += 1
        heapq.heappush(heap, (when + rng.random(), seq, _Event(
            when, (event.key * 31 + 7) % _KEYS, {"n": len(recent)})))
    return len(history)


def sample(count: int) -> List[float]:
    """Wall seconds of ``count`` repetitions of the kernel."""
    gc.collect()
    times = []
    for _ in range(count):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def slowdown(times: List[float]) -> float:
    """How many times slower than :data:`REFERENCE_S` the host ran,
    judged by the fastest repetition in ``times``."""
    return min(times) / REFERENCE_S
