"""Host-speed probe: the timings of a run, scaled to a fixed host speed.

On a shared host the speed available to one process changes by half and
more from one second to the next, as other tenants come and go, in CPU
time as much as in wall time.  A fixed amount of pure-Python work that does
not touch the library, ``kernel``, is timed right before and right after
every timed operation and set-up.  The mean of those two times is the host
speed at that moment, and ``scale`` converts the operation's time to the
time it would take at the speed at which ``kernel`` takes ``REF_S``.  A
change to the library moves the operation's time and not the kernel's, so
it moves the scaled time in full; a change of host speed moves both.

The kernel does the library's kinds of work in plain Python: objects with
slots, attribute reads, max-plus relaxation over floats in a loop, dicts,
and a set of pairs filtered by membership.  A host slowdown that makes the
kernel k times slower made the operations of the four workloads between
k**0.7 and k**1.0 times slower, depending on the operation and the moment
(``cli``, which also writes files, about k**0.55), so the scaling removes
most of the host's drift, not all.  The
kernel runs twice per probe and only the second run is timed, so that what
the previous operation left in the caches does not move the probe.
"""

from __future__ import annotations

import gc
import time

# The kernel's time, in seconds, at the reference host speed: about its
# time on the shared 2-vCPU host the benchmark was written on (Python
# 3.11) at the moments that host was least loaded.
REF_S = 0.0004

_NODES = 60
_ROUNDS = 6
_PAIRS = 30


class _Node:
    __slots__ = ("key", "succ", "w")

    def __init__(self, key: int, w: float) -> None:
        self.key = key
        self.succ: list[_Node] = []
        self.w = w


def kernel() -> tuple[dict, int]:
    nodes = {i: _Node(i, float((7 * i) % 11)) for i in range(_NODES)}
    for i, node in nodes.items():
        node.succ = [nodes[(3 * i + 1) % _NODES], nodes[(5 * i + 2) % _NODES], nodes[(i + 7) % _NODES]]
    dist = {k: 0.0 for k in nodes}
    for _ in range(_ROUNDS):
        new = {}
        for k, node in nodes.items():
            best = dist[k]
            for s in node.succ:
                v = dist[s.key] + s.w
                if v > best:
                    best = v
            new[k] = min(best, 1000.0)
        dist = new
    rel = {(a, b) for a in range(_PAIRS) for b in range(_PAIRS) if (a + b) % 3}
    return dist, len(frozenset(p for p in rel if (p[1], p[0]) in rel))


def probe() -> float:
    """Seconds one ``kernel`` call takes now, caches warm.  The collector is
    paused, so that garbage left by the previous operation is collected in
    the next one, not here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, at the reference speed."""
    return seconds * REF_S * 2.0 / (before + after)


for _ in range(20):  # warm the kernel's code paths before the first probe
    kernel()
