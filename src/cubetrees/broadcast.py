"""Multipath broadcast metrics over a tree decomposition.

A family of edge-disjoint spanning trees lets a root stream different chunks
of a message down different trees simultaneously without any link carrying
two trees' traffic.  This module reports the quantities that drive such a
schedule: per-tree depth from the root, the worst-case per-link tree load
(1 for any valid decomposition), and a first-order pipelined time estimate.
It also reports how many vertices each tree reaches: a tree that reaches
fewer than 2^n cannot carry its chunks to every vertex, and the metrics are
not ok.  Depths and reach come from the level searches of walk.py.  Trees
are searched in groups whose stacked masks, derived from one set of label
bit planes, fit hypercube's stacking budget (_stacks); a group gets at most
two searches: a walk, and only if that cuts a tree (a cycle), a marked
search.

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
from .hypercube import _stacks, bit_planes, check_integer, num_vertices, plane_masks
from .walk import _search


class _Depths(list):
    """Each tree's depth, with reached: the vertices each tree reaches from
    the root, the root included."""

    def __init__(self, depths: list[int], reached: tuple[int, ...]) -> None:
        super().__init__(depths)
        self.reached = reached


def tree_depths(dec: Decomposition, root: int) -> list[int]:
    """Eccentricity of root within each tree: one walk that never steps back
    per group of trees, and when the walk cuts a tree of the group (a
    cycle), one marked search of that group (_search).  The list also
    carries what each tree reaches (_Depths)."""
    root = check_integer("root", root, 0)
    if root >= num_vertices(dec.n):
        raise ValueError(f"root {root} out of range for n={dec.n}")
    planes, depths, reach = bit_planes(dec.labels, dec.n), [], []
    for trees in _stacks(range(1, dec.k + 1), planes):
        marks = plane_masks(planes, trees, dec.n).reshape(-1)
        found = _search(marks, dec.n, root)
        if None in found[0]:
            found = _search(marks, dec.n, root, np.zeros(marks.size, dtype=np.int32))
        depths += found[0]
        reach += found[1]
    return _Depths(depths, tuple(count + 1 for count in reach))


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
    reached: tuple[int, ...]  # vertices each tree reaches from root, root included
    vertices: int  # 2^n

    @property
    def ok(self) -> bool:
        """Every tree reaches every vertex."""
        return all(count == self.vertices for count in self.reached)

    def to_text(self) -> str:
        lines = [
            f"broadcast metrics from root {self.root}:",
            f"  tree depths: {list(self.depths)}",
            f"  max link load: {self.max_link_load}",
            f"  pipelined time estimate: {self.total_time_model}",
        ]
        if not self.ok:
            short = [f"tree {j} reaches {c}" for j, c in enumerate(self.reached, 1) if c < self.vertices]
            lines.append(f"  short of all {self.vertices} vertices: {', '.join(short)}")
        return "\n".join(lines)


def broadcast_metrics(
    dec: Decomposition, root: int, parts: int = 1, hop_cost: float = 1.0
) -> BroadcastMetrics:
    """Per-tree depths from root, link load, and the pipelined completion
    time hop_cost * max over trees of (depth + parts - 1).  tree_depths
    checks root."""
    if dec.k == 0:
        raise ValueError("broadcast model undefined with zero trees (n = 1)")
    parts = check_integer("parts", parts, 1)
    real = isinstance(hop_cost, numbers.Real) and not isinstance(hop_cost, bool)
    if not (real and 0 < hop_cost < math.inf):
        raise ValueError(f"hop_cost must be finite and > 0, got {hop_cost!r}")
    depths = tree_depths(dec, root)
    return BroadcastMetrics(
        root=int(root),
        depths=tuple(depths),
        max_link_load=link_load(dec),
        total_time_model=hop_cost * (max(depths) + parts - 1),
        reached=depths.reached,
        vertices=num_vertices(dec.n),
    )
