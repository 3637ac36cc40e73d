"""A fixed piece of interpreter work that times how fast the machine is running now.

Shared machines change speed from one minute to the next.  The benchmark
runs this kernel between operations and reports operation time relative to
it, so a slower machine slows both and their ratio keeps.  The kernel uses
no package code, so no change to the package moves it.

How much a busy neighbour slows a piece of work depends on how much data it
touches, so the kernel runs on a graph of a size each workload chooses: the
one whose times tracked that workload's operations best.
"""

from __future__ import annotations

import functools
import time
from statistics import median

# Every kernel call does WORK union and search steps, over a graph of `size`
# vertices visited WORK // size times.  The graph's size sets the working set.
WORK = 1 << 16


@functools.cache
def _pairs(size: int) -> tuple[list[int], list[int]]:
    state, u, v = 12345, [], []
    for _ in range(size):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        u.append(state % size)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        v.append(state % size)
    return u, v


def kernel_seconds(size: int) -> float:
    """Union-find over fixed pairs, then a dict-of-lists breadth-first search."""
    u, v = _pairs(size)
    start = time.perf_counter()
    for _ in range(max(1, WORK // size)):
        _union_and_search(u, v, size)
    return time.perf_counter() - start


def _union_and_search(u: list[int], v: list[int], size: int) -> None:
    parent = list(range(size))
    adjacency: dict[int, list[int]] = {}
    for a, b in zip(u, v):
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[b] = a
    seen = {0: 0}
    queue = [0]
    for node in queue:
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen[nxt] = seen[node] + 1
                queue.append(nxt)


# Typical kernel time per graph size on the machine the first numbers were
# taken on (2 cores, Python 3.11.7).  Reported times are scaled to that speed.
REFERENCE_KERNEL_S = {1 << 12: 0.035, 1 << 15: 0.045}


def kernel_median(size: int, at_least_s: float = 0.0) -> float:
    """Median kernel time over at least three runs and at least `at_least_s` seconds."""
    samples = [kernel_seconds(size) for _ in range(3)]
    while sum(samples) < at_least_s:
        samples.append(kernel_seconds(size))
    return median(samples)


def scaled(seconds: float, kernel_s: float, size: int) -> float:
    """seconds as they would read on a machine where the kernel takes REFERENCE_KERNEL_S."""
    return seconds * REFERENCE_KERNEL_S[size] / kernel_s
