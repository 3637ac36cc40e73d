"""Slow reference for broadcast depths: a dict-of-lists breadth-first search.

This is the search `cubetrees.broadcast.tree_depths` ran before it searched
the per-vertex edge mask.  It decodes every tree edge to its endpoints and
builds an adjacency dict, so it shares nothing with the mask search; the
property tests require the library's depths to equal its depths.
"""

from __future__ import annotations

from collections import deque

from cubetrees.construct import Decomposition
from cubetrees.hypercube import edge_endpoints, num_vertices


def reference_tree_depths(dec: Decomposition, root: int) -> list[int]:
    """Eccentricity of root within each tree, by breadth-first traversal."""
    vertices = num_vertices(dec.n)
    if not 0 <= root < vertices:
        raise ValueError(f"root {root} out of range for n={dec.n}")
    depths = []
    for j in range(1, dec.k + 1):
        u, v = edge_endpoints(dec.tree_edge_ids(j), dec.n)
        adjacency: dict[int, list[int]] = {}
        for a, b in zip(u.tolist(), v.tolist()):
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        depth = {root: 0}
        queue = deque([root])
        far = 0
        while queue:
            node = queue.popleft()
            for nxt in adjacency.get(node, ()):
                if nxt not in depth:
                    depth[nxt] = depth[node] + 1
                    far = max(far, depth[nxt])
                    queue.append(nxt)
        depths.append(far)
    return depths
