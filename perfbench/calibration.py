"""A fixed yardstick of host speed, timed between a pass's operations.

On a shared host the same work runs up to ~1.8x slower for minutes at a
time, and the program's CPU time moves with its wall time, so neither
can be compared across runs as it stands.  The yardstick is a fixed
piece of interpreter work of the same kind the program does (a heap
calendar, dictionaries, method calls, float arithmetic, seeded draws),
kept in the benchmark so that no change to the program moves it.
A sample timed just before each operation tells how fast the host was
when the operation ran; ``perfbench/run.py`` scales the operation's wall
time by it (see README.md, *Steadiness*).
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

#: Events pushed through the heap per chunk (3-6 ms on a 2-vCPU cloud container).
CHUNK_EVENTS = 3000
#: Chunks timed per sample; the sample is their median.
CHUNKS_PER_SAMPLE = 3


class _Node:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def receive(self, value: float) -> None:
        self.count += 1
        self.total += value * 0.5 + 1.0


def sample_seconds() -> float:
    """Median wall seconds of ``CHUNKS_PER_SAMPLE`` chunks: the host speed just now."""
    return statistics.median(chunk_seconds() for _ in range(CHUNKS_PER_SAMPLE))


def chunk_seconds() -> float:
    """Wall seconds of one fixed chunk of yardstick work.

    The garbage collector is paused while the chunk runs, so that the
    chunk never pays for collecting the program's objects.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _timed_chunk()
    finally:
        if collecting:
            gc.enable()


def _timed_chunk() -> float:
    started = time.perf_counter()
    rng = random.Random(12345)
    nodes = [_Node() for _ in range(16)]
    routes = {}
    calendar = [(rng.random(), index, index % 16) for index in range(64)]
    heapq.heapify(calendar)
    for sequence in range(CHUNK_EVENTS):
        when, _tie, target = heapq.heappop(calendar)
        node = nodes[target]
        node.receive(when)
        routes[(target, sequence & 63)] = node.count
        heapq.heappush(calendar, (when + rng.expovariate(2.0), sequence + 64, (target * 7 + 3) % 16))
    elapsed = time.perf_counter() - started
    if sum(node.count for node in nodes) != CHUNK_EVENTS or len(routes) > 16 * 64:
        raise AssertionError("calibration chunk did not do its fixed work")
    return elapsed
