"""A fixed pure-Python computation that gauges how fast the host runs now.

The hosts this benchmark runs on are shared: on a 2-CPU virtual machine
the same ``fleet-scalar`` repetition took from 1.2 s to 2.3 s within a
few minutes, and its process CPU time slowed with it (no CPU time was
stolen; the CPU ran slower).  So each timed run is bracketed by a pass of
this reference just before and just after it, and the gated time metrics
are scaled to a host that runs the reference in :data:`NOMINAL_S`.

The reference is the benchmark's own code, so a change to the program
cannot change it.  It exercises what the simulator spends its time on:
allocating and freeing small objects, a heap-ordered queue, dict
updates, float arithmetic and a generator.  Its live set stays small and
the collector is off while it runs, so it costs the same whatever else
lives in the process.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import Iterator

NOMINAL_S = 0.2
"""Reference time of the nominal host the gated metrics are scaled to."""

ROUNDS = 120_000


class _Event:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


def _ticks(count: int) -> Iterator[float]:
    for index in range(count):
        yield index * 0.5


def reference_seconds(rounds: int = ROUNDS) -> float:
    """Wall-clock of one pass of the reference computation.

    The collector is off during the pass, so its time does not depend on
    what else lives in the calling process's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_pass(rounds)
    finally:
        if enabled:
            gc.enable()


def _timed_pass(rounds: int) -> float:
    rng = random.Random(7)
    queue: list[tuple[float, int]] = []
    # A bounded live set, so the pass adds nothing to the peak memory of
    # the process that runs it.
    latest: dict[int, _Event] = {}
    total = 0.0
    started = time.perf_counter()
    for index, tick in zip(range(rounds), _ticks(rounds)):
        draw = rng.random()
        heapq.heappush(queue, (draw, index))
        slot = index & 4095
        previous = latest.get(slot)
        carried = previous.value if previous is not None else 0.0
        latest[slot] = _Event(index, draw * 1.5 + tick * 1e-9 + carried * 1e-3)
        if len(queue) > 64:
            total += heapq.heappop(queue)[0]
    elapsed = time.perf_counter() - started
    if not total > 0.0:
        raise RuntimeError("the reference computation produced no work")
    return elapsed
