"""Multipath broadcast metrics over a tree decomposition.

A family of edge-disjoint spanning trees lets a root stream different chunks
of a message down different trees simultaneously without any link carrying
two trees' traffic.  This module reports the quantities that drive such a
schedule: per-tree depth from the root, the worst-case per-link tree load
(1 for any valid decomposition), and a first-order pipelined time estimate.
It also reports how many vertices each tree reaches: a tree that reaches
fewer than 2^n cannot carry its chunks to every vertex, and the metrics are
not ok.  Depths and reach come from walk.py's driver (_search_trees), the
one the verifier uses.  A cube of at most 2^12 vertices searches all its
trees at once, breadth-first over vertex sets.  A larger cube, or a tree
deeper than that search's depth guard, is searched in groups whose stacked
masks, derived from one set of label bit planes, fit the stacking budget; a
group gets one walk, and each tree the walk cuts (a cycle) one marked
search of its own mask row.  Large cubes run the groups on two threads.

The time model is deliberately simple: the message is cut into k * parts
equal chunks, each tree streams its chunks in a pipeline, hops have uniform
cost and there is no contention, so a tree of depth D finishes after
(D + parts - 1) hops.  This is a utility estimate, not a network simulation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .construct import Decomposition
from .hypercube import check_integer, num_vertices
from .walk import _search_trees


class _Depths(list):
    """Each tree's depth, with reached: the vertices each tree reaches from
    the root, the root included."""

    def __init__(self, depths: list[int], reached: tuple[int, ...]) -> None:
        super().__init__(depths)
        self.reached = reached


def tree_depths(dec: Decomposition, root: int) -> list[int]:
    """Eccentricity of root within each tree (walk._search_trees).  The list
    also carries what each tree reaches (_Depths)."""
    root = check_integer("root", root, 0)
    if root >= num_vertices(dec.n):
        raise ValueError(f"root {root} out of range for n={dec.n}")
    found = _search_trees(dec.labels, dec.n, root)
    return _Depths([depth for depth, _, _ in found], tuple(reach + 1 for _, reach, _ in found))


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
