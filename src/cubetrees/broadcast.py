"""Multipath broadcast metrics over a tree decomposition.

A family of edge-disjoint spanning trees lets a root stream different chunks
of a message down different trees simultaneously without any link carrying
two trees' traffic.  This module reports the quantities that drive such a
schedule: per-tree depth from the root, the worst-case per-link tree load
(1 for any valid decomposition), and a first-order pipelined time estimate.
Depths come from searches over each tree's per-vertex edge mask
(hypercube.edge_mask) that share one level step (_level).  A frontier entry
is a vertex plus, above it, the mask bit it was reached by; each of its other
mask bits gives one entry of the next level.  A wide level goes to numpy in a
few dozen whole-array calls, a narrow one to an interpreter loop over its few
entries.  A bushy tree spends most of its vertices in a handful of wide
levels, so numpy does nearly all of its work; a deep, thin tree (a
Hamiltonian path has 2^n - 1 levels of one vertex) would pay numpy's fixed
cost per call at every level, so it stays in the loop.

In a tree every step leads to a new vertex, so the walk (_walk) takes each
level as the step gives it and keeps no visit array.  From a vertex whose
component holds a cycle the walk would never end: once it has reached more
than 2^n - 1 vertices it stops, and a breadth-first search (_marked_search)
starts over.  It passes each level through a first-visit filter
(_first_visits) that keeps one entry per vertex not yet reached and marks
those vertices in one int32 visit array (0 for unreached).

A tree has the double-sweep property: if a is a vertex farthest from any
start and b one farthest from a, every vertex v has eccentricity
max(d(v, a), d(v, b)).  So three walks per tree give every root's depth
(_eccentricity_rows), in k rows of 2^n entries.

The time model is deliberately simple: the message is cut into k * parts
equal chunks, each tree streams its chunks in a pipeline, hops have uniform
cost and there is no contention, so a tree of depth D finishes after
(D + parts - 1) hops.  This is a utility estimate, not a network simulation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .construct import Decomposition
from .hypercube import check_integer, edge_mask, num_vertices

# A level with at least this many entries is expanded by numpy, a narrower
# one by the interpreter loop.  Measured on slices of the widest level of
# trees 1, 4 and 8 of construct(16), median of 500-2000 calls each: 8 entries
# took 2-4 us in the loop and 8-28 us in numpy, 64 took 5-18 us and 6-30 us,
# 128 took 17-40 us and 15-36 us, 256 took 33-85 us and 22-64 us.  The two
# cross between 64 and 128 entries; a tree has only a few levels in that band.
_WIDE_LEVEL = 64


def _check_root(dec: Decomposition, root: int) -> int:
    root = check_integer("root", root, 0)
    if root >= num_vertices(dec.n):
        raise ValueError(f"root {root} out of range for n={dec.n}")
    return root


def tree_depths(dec: Decomposition, root: int) -> list[int]:
    """Eccentricity of root within each tree: a walk that never steps back
    (_walk), or a marked search when root's component holds a cycle."""
    root = _check_root(dec, root)
    depths = []
    for j in range(1, dec.k + 1):
        marks = edge_mask(dec.labels, j, dec.n)
        found = _walk(marks, dec.n, root)
        depths.append(_marked_search(marks, dec.n, root) if found is None else found[0])
    return depths


def _walk(
    marks: np.ndarray, n: int, source: int, levels: list | None = None
) -> tuple[int, int] | None:
    """Depth and a deepest vertex of a walk from source that never steps back,
    or None when it reaches more than 2^n - 1 vertices (a cycle).  Every
    level, source's first, is appended to levels when given."""
    mask = memoryview(marks)
    full = num_vertices(n) - 1
    left = full  # vertices a tree can still reach
    frontier, depth = [source], 0
    while True:
        if levels is not None:
            levels.append(frontier)
        reached = _level(marks, mask, n, frontier, left)
        if reached is None:
            return None
        if not len(reached):
            return depth, int(frontier[0]) & full
        left -= len(reached)
        frontier, depth = reached, depth + 1


def _level(
    marks: np.ndarray, mask: memoryview, n: int, frontier: list[int] | np.ndarray, limit: float
) -> list[int] | np.ndarray | None:
    """The entries one level past frontier, or None once they number more
    than limit.  An entry is a vertex plus, shifted left by n, the mask bit it
    was reached by; each of its other mask bits gives one next entry.  mask is
    memoryview(marks), made once per search for the narrow loop."""
    if len(frontier) >= _WIDE_LEVEL:
        reached = _wide_walk_level(marks, n, frontier, limit)
        return reached if reached is None or reached.size >= _WIDE_LEVEL else reached.tolist()
    full = (1 << n) - 1
    reached = []
    for entry in frontier:
        x = entry & full
        rest = mask[x] ^ (entry >> n)
        while rest:
            low = rest & -rest
            rest ^= low
            reached.append(x ^ low | low << n)
    return None if len(reached) > limit else reached


def _wide_walk_level(
    marks: np.ndarray, n: int, frontier: list[int] | np.ndarray, left: float
) -> np.ndarray | None:
    """_level for a wide frontier: the lowest remaining bit of every frontier
    mask is peeled once per pass, and the level is dropped as soon as it holds
    more than left entries."""
    x = np.asarray(frontier)
    v = x & ((1 << n) - 1)
    bits = marks[v] ^ (x >> n)
    found, size = [], 0
    while True:
        keep = bits != 0
        v, bits = v[keep], bits[keep]
        size += v.size
        if size > left:
            return None
        if not v.size:
            break
        low = bits & -bits
        found.append(v ^ low | low << n)
        bits ^= low
    return np.concatenate(found) if found else v


def _marked_search(marks: np.ndarray, n: int, source: int) -> int:
    """Depth of a breadth-first search from source that keeps only the first
    visit to each vertex (_first_visits), so a cycle cannot loop it."""
    mask = memoryview(marks)
    order = np.zeros(num_vertices(n), dtype=np.int32)
    order[source] = 1
    frontier, far = [source], -1
    while len(frontier):
        far += 1
        frontier = _first_visits(_level(marks, mask, n, frontier, math.inf), order, n)
    return far


def _first_visits(
    reached: list[int] | np.ndarray, order: np.ndarray, n: int
) -> list[int] | np.ndarray:
    """The entries of reached whose vertex order does not mark yet, one per
    vertex, now marked.

    A list is checked and marked entry by entry.  An array is kept without a
    sort: every entry writes its 1-based position to order[vertex], which
    marks the vertex, and only the entry whose position order still holds
    survives.
    """
    full = (1 << n) - 1
    if isinstance(reached, list):
        seen, first = memoryview(order), []
        for entry in reached:
            if not seen[entry & full]:
                seen[entry & full] = 1
                first.append(entry)
        return first
    reached = reached[order[reached & full] == 0]
    y = reached & full
    place = np.arange(1, y.size + 1, dtype=np.int32)
    order[y] = place
    first = reached[order[y] == place]
    return first if first.size >= _WIDE_LEVEL else first.tolist()


def _eccentricity_rows(dec: Decomposition) -> list[np.ndarray]:
    """Every root's depth at once: entry v of row j - 1 is
    tree_depths(dec, v)[j - 1].

    Three walks per tree by the double sweep (module docstring).  Raises
    ValueError when a label is not a spanning tree.
    """
    rows = []
    for j in range(1, dec.k + 1):
        marks = edge_mask(dec.labels, j, dec.n)
        a = _distances(marks, dec.n, 0, j)[1]
        from_a, b = _distances(marks, dec.n, a, j)
        rows.append(np.maximum(from_a, _distances(marks, dec.n, b, j)[0]))
    return rows


def _distances(marks: np.ndarray, n: int, source: int, j: int) -> tuple[np.ndarray, int]:
    """Distance from source to every vertex of tree j, and a farthest vertex."""
    levels: list = []
    found = _walk(marks, n, source, levels)
    if found is None or sum(map(len, levels)) < num_vertices(n):
        raise ValueError(f"label {j} is not a spanning tree")
    dist = np.empty(num_vertices(n), dtype=np.min_scalar_type(found[0]))
    for depth, level in enumerate(levels):
        dist[np.asarray(level) % num_vertices(n)] = depth
    return dist, found[1]


def link_load(dec: Decomposition) -> int:
    """Maximum number of trees sharing one link: each edge carries one label,
    so this is 1 whenever there is a tree edge and 0 when there is none."""
    return int(dec.labels.any())


@dataclass(frozen=True)
class BroadcastMetrics:
    root: int
    depths: tuple[int, ...]
    max_link_load: int
    total_time_model: float

    def to_text(self) -> str:
        lines = [
            f"broadcast metrics from root {self.root}:",
            f"  tree depths: {list(self.depths)}",
            f"  max link load: {self.max_link_load}",
            f"  pipelined time estimate: {self.total_time_model}",
        ]
        return "\n".join(lines)


def broadcast_metrics(
    dec: Decomposition, root: int, parts: int = 1, hop_cost: float = 1.0
) -> BroadcastMetrics:
    """Per-tree depths from root, link load, and the pipelined completion
    time hop_cost * max over trees of (depth + parts - 1)."""
    if dec.k == 0:
        raise ValueError("broadcast model undefined with zero trees (n = 1)")
    root = _check_root(dec, root)
    parts = check_integer("parts", parts, 1)
    real = isinstance(hop_cost, numbers.Real) and not isinstance(hop_cost, bool)
    if not (real and 0 < hop_cost < math.inf):
        raise ValueError(f"hop_cost must be finite and > 0, got {hop_cost!r}")
    depths = tuple(tree_depths(dec, root))
    return BroadcastMetrics(
        root=root,
        depths=depths,
        max_link_load=link_load(dec),
        total_time_model=hop_cost * (max(depths) + parts - 1),
    )
