"""Multipath broadcast metrics over a tree decomposition.

A family of edge-disjoint spanning trees lets a root stream different chunks
of a message down different trees simultaneously without any link carrying
two trees' traffic.  This module reports the quantities that drive such a
schedule: per-tree depth from the root, the worst-case per-link tree load
(1 for any valid decomposition), and a first-order pipelined time estimate.
Depths come from searches over per-vertex edge masks (hypercube.edge_masks,
uint8 up to n = 8, uint16 up to n = 16, uint32 above) that share one level
step (_level).  A frontier entry is a mask index plus, above it, the mask bit
it was reached by; each of its other mask bits gives one entry of the next
level.  A wide level goes to numpy in a few dozen whole-array calls, a narrow
one to an interpreter loop over its few entries.  A bushy tree spends most of
its vertices in a handful of wide levels, so numpy does nearly all of its
work; a deep, thin tree (a Hamiltonian path has 2^n - 1 levels of one vertex)
would pay numpy's fixed cost per call at every level, so it stays in the
loop.

Trees are searched in groups (_groups): the masks of up to _GROUP_BYTES of
trees sit in one flat array, tree t's at offset t * 2^n, so an entry of tree
t is t << n | vertex with its came-by bit above the tree number, and one
level step expands every tree of the group at once.  A group gets at most
two searches (_search).  The first is a walk: in a tree every step leads to
a new vertex, so the walk takes each level as the step gives it and keeps no
visit array; a tree's depth is the last level that holds one of its entries.
From a vertex whose component holds a cycle the walk would never end: it
stops once a level holds more entries than the trees still walking can
reach (2^n - 1 vertices per tree, less what each has reached; a tree whose
walk has ended gives up the rest).  Then the same group gets one
breadth-first search that passes each level through a first-visit filter
(_first_visits).  It keeps one entry per index t << n | vertex not yet
reached and marks those indices in one int32 visit array of the group's
size (0 for unreached).

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
from .hypercube import check_integer, edge_masks, num_vertices

# A level with at least this many entries is expanded by numpy, a narrower
# one by the interpreter loop.  Measured on slices of the widest level of
# trees 1, 4 and 8 of construct(16), median of 500-2000 calls each: 8 entries
# took 2-4 us in the loop and 8-28 us in numpy, 64 took 5-18 us and 6-30 us,
# 128 took 17-40 us and 15-36 us, 256 took 33-85 us and 22-64 us.  The two
# cross between 64 and 128 entries; a tree has only a few levels in that band.
_WIDE_LEVEL = 64

# Trees are walked in groups whose stacked masks fill at most this many bytes
# (one tree at least): all k trees up to n = 15, four at n = 16 (uint16
# masks), one from n = 17 up (uint32).  Measured as the median of
# tree_depths(construct(n), root) over 40-200 seeded roots, every group size
# timed on each root in turn (2-CPU shared VM): n = 14 with 1/2/4/7 trees
# took 8.0/7.0/5.3/4.3 ms, n = 15 with 2/4/7 took 11.2/8.7/8.1 ms, n = 16
# with 1/2/3/4/8 took 21.8/20.2/19.5/17.4/17.7 ms, n = 17 with 1/2 took
# 30.7/31.5 ms and n = 18 with 1/2 took 63/74 ms.  1 MB of masks was no
# faster at n = 16 and 17, and slower at n = 18.
_GROUP_BYTES = 1 << 19


def _check_root(dec: Decomposition, root: int) -> int:
    root = check_integer("root", root, 0)
    if root >= num_vertices(dec.n):
        raise ValueError(f"root {root} out of range for n={dec.n}")
    return root


def _groups(dec: Decomposition):
    """The stacked masks of each group of trees, in label order."""
    row = num_vertices(dec.n) * np.min_scalar_type(num_vertices(dec.n) - 1).itemsize
    size = max(1, min(dec.k, _GROUP_BYTES // row))
    for first in range(1, dec.k + 1, size):
        yield edge_masks(dec.labels, range(first, min(first + size, dec.k + 1)), dec.n)


def tree_depths(dec: Decomposition, root: int) -> list[int]:
    """Eccentricity of root within each tree: one walk that never steps back
    per group of trees, and when a group's walk meets a cycle, one marked
    search of that group (_search)."""
    root = _check_root(dec, root)
    depths = []
    for masks in _groups(dec):
        marks = masks.reshape(-1)
        found = _search(marks, dec.n, root)
        if found is None:
            found = _search(marks, dec.n, root, np.zeros(marks.size, dtype=np.int32))
        depths += found
    return depths


def _search(
    marks: np.ndarray, n: int, source: int,
    order: np.ndarray | None = None, levels: list | None = None,
) -> list[int] | None:
    """Each tree's depth in a search of a group from source.

    marks stacks the group's masks, tree t's at offset t * 2^n, and every
    tree's search starts at source.  So an entry is t << n | vertex, with its
    came-by bit shifted above the tree number.  Every level, the first
    holding source once per tree, is appended to levels when given.

    Without order the search is a walk that never steps back.  It returns
    None once a level holds more entries than the trees still walking can
    reach: 2^n - 1 vertices per tree, less what each has reached (a cycle).
    A tree whose walk has ended gives up what it did not reach.  With order,
    a zeroed int32 array of marks.size entries, every level keeps only first
    visits (_first_visits), so a cycle cannot loop the search and it has no
    limit."""
    group = marks.size >> n
    tree = (1 << (group - 1).bit_length()) - 1  # an entry's tree number, shifted down by n
    shift = n + tree.bit_length()
    mask = memoryview(marks)
    full = num_vertices(n) - 1
    left = group * full  # vertices the trees still walking can reach
    frontier = [t << n | source for t in range(group)]
    if order is not None:
        seen, left = memoryview(order), math.inf
        order[frontier] = 1
    depths, reach, depth = [0] * group, [0] * group, 0
    alive = [*range(group)]  # the trees in frontier: a tree missing from a level has ended
    while True:
        if levels is not None:
            levels.append(frontier)
        reached = _level(marks, mask, shift, frontier, left)
        if reached is None:
            return None
        if order is not None:
            reached = _first_visits(reached, order, seen, shift)
        if not len(reached):
            for t in alive:
                depths[t] = depth
            return depths
        left -= len(reached)
        if len(alive) > 1:
            counts = np.bincount(np.asarray(reached) >> n & tree, minlength=group).tolist()
            for t in alive:
                reach[t] += counts[t]
                if not counts[t]:
                    depths[t] = depth  # the last level that held its entries
                    left -= full - reach[t]  # what an ended tree did not reach
            alive = [t for t in alive if counts[t]]
        frontier, depth = reached, depth + 1


def _level(
    marks: np.ndarray, mask: memoryview, shift: int, frontier: list[int] | np.ndarray, limit: float
) -> list[int] | np.ndarray | None:
    """The entries one level past frontier, or None once they number more
    than limit.  An entry is a mask index plus, shifted left by shift, the
    mask bit it was reached by; each of its other mask bits gives one next
    entry.  mask is memoryview(marks), made once per search for the narrow
    loop."""
    if len(frontier) >= _WIDE_LEVEL:
        reached = _wide_walk_level(marks, shift, frontier, limit)
        return reached if reached is None or reached.size >= _WIDE_LEVEL else reached.tolist()
    full = (1 << shift) - 1
    reached = []
    for entry in frontier:
        x = entry & full
        rest = mask[x] ^ (entry >> shift)
        while rest:
            low = rest & -rest
            rest ^= low
            reached.append(x ^ low | low << shift)
    return None if len(reached) > limit else reached


def _wide_walk_level(
    marks: np.ndarray, shift: int, frontier: list[int] | np.ndarray, left: float
) -> np.ndarray | None:
    """_level for a wide frontier: the lowest remaining bit of every frontier
    mask is peeled once per pass, and the level is dropped as soon as it holds
    more than left entries."""
    x = np.asarray(frontier)
    v = x & ((1 << shift) - 1)
    bits = marks[v] ^ (x >> shift)
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
        found.append(v ^ low | low << shift)
        bits ^= low
    return np.concatenate(found) if found else v


def _first_visits(
    reached: list[int] | np.ndarray, order: np.ndarray, seen: memoryview, shift: int
) -> list[int] | np.ndarray:
    """The entries of reached whose mask index (the bits below shift, so
    t << n | vertex in a group) order does not mark yet, one per index, now
    marked.

    A list is checked and marked entry by entry through seen, which is
    memoryview(order), made once per search.  An array is kept without a
    sort: every entry writes its 1-based position to order[index], which
    marks the index, and only the entry whose position order still holds
    survives.
    """
    full = (1 << shift) - 1
    if isinstance(reached, list):
        first = []
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

    Three walks per tree by the double sweep (module docstring), each a
    walk of a group of one.  Raises ValueError when a label is not a
    spanning tree.
    """
    rows = []
    trees = (marks for masks in _groups(dec) for marks in masks)
    for j, marks in enumerate(trees, 1):
        a = _distances(marks, dec.n, 0, j)[1]
        from_a, b = _distances(marks, dec.n, a, j)
        rows.append(np.maximum(from_a, _distances(marks, dec.n, b, j)[0]))
    return rows


def _distances(marks: np.ndarray, n: int, source: int, j: int) -> tuple[np.ndarray, int]:
    """Distance from source to every vertex of tree j, and a farthest vertex."""
    levels: list = []
    found = _search(marks, n, source, levels=levels)
    if found is None or sum(map(len, levels)) < num_vertices(n):
        raise ValueError(f"label {j} is not a spanning tree")
    dist = np.empty(num_vertices(n), dtype=np.min_scalar_type(found[0]))
    for depth, level in enumerate(levels):
        dist[np.asarray(level) % num_vertices(n)] = depth
    return dist, int(levels[-1][0]) % num_vertices(n)


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
