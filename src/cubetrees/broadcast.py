"""Multipath broadcast metrics over a tree decomposition.

A family of edge-disjoint spanning trees lets a root stream different chunks
of a message down different trees simultaneously without any link carrying
two trees' traffic.  This module reports the quantities that drive such a
schedule: per-tree depth from the root, the worst-case per-link tree load
(1 for any valid decomposition), and a first-order pipelined time estimate.
Depths come from a breadth-first search over each tree's per-vertex edge
mask (hypercube.edge_mask), the same edge-set form the verifier checks.

The time model is deliberately simple: the message is cut into k * parts
equal chunks, each tree streams its chunks in a pipeline, hops have uniform
cost and there is no contention, so a tree of depth D finishes after
(D + parts - 1) hops.  This is a utility estimate, not a network simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .construct import Decomposition
from .hypercube import edge_mask, num_vertices


def tree_depths(dec: Decomposition, root: int) -> list[int]:
    """Eccentricity of root within each tree, by breadth-first search over the
    tree's edge mask; reached vertices are marked, so a cycle cannot loop it."""
    if not 0 <= root < num_vertices(dec.n):
        raise ValueError(f"root {root} out of range for n={dec.n}")
    depths = []
    for j in range(1, dec.k + 1):
        mask = edge_mask(dec.labels, j, dec.n)[0].tolist()
        seen = bytearray(num_vertices(dec.n))
        seen[root] = 1
        frontier, far = [root], -1
        while frontier:
            far += 1
            reached = []
            for x in frontier:
                bits = mask[x]
                while bits:
                    low = bits & -bits
                    bits ^= low
                    if not seen[x ^ low]:
                        seen[x ^ low] = 1
                        reached.append(x ^ low)
            frontier = reached
        depths.append(far)
    return depths


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
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if not 0 < hop_cost < math.inf:
        raise ValueError(f"hop_cost must be finite and > 0, got {hop_cost}")
    depths = tuple(tree_depths(dec, root))
    return BroadcastMetrics(
        root=root,
        depths=depths,
        max_link_load=link_load(dec),
        total_time_model=hop_cost * (max(depths) + parts - 1),
    )
