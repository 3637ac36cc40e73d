"""Multipath broadcast metrics over a tree decomposition.

A family of edge-disjoint spanning trees lets a root stream different chunks
of a message down different trees simultaneously without any link carrying
two trees' traffic.  This module reports the quantities that drive such a
schedule: per-tree depth from the root, the worst-case per-link tree load
(1 for any valid decomposition), and a first-order pipelined time estimate.
Depths come from the level searches of walk.py.  Trees are searched in
groups (_groups) of up to _GROUP_BYTES of stacked masks; a group gets at
most two searches: a walk, and only if that meets a cycle, a marked search.

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
from .hypercube import bit_planes, check_integer, num_vertices, plane_masks
from .walk import _search

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
    """The stacked masks of each group of trees, in label order, from one set of bit planes."""
    planes = bit_planes(dec.labels, dec.n)
    size = max(1, min(dec.k, _GROUP_BYTES // (planes.itemsize << dec.n)))
    for first in range(1, dec.k + 1, size):
        yield plane_masks(planes, range(first, min(first + size, dec.k + 1)), dec.n)


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
        depths += found[0]
    return depths


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
    if found is None or found[1]:
        raise ValueError(f"label {j} is not a spanning tree")
    dist = np.empty(num_vertices(n), dtype=np.min_scalar_type(found[0][0]))
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
