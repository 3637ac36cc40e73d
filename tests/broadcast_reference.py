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
    return [depth for depth, _, _ in reference_tree_searches(dec, root)]


def reference_tree_searches(dec: Decomposition, root: int) -> list[tuple[int, int, bool]]:
    """(eccentricity of root, vertices reached, cyclic?) of root's component
    in each tree, by breadth-first traversal; the component holds a cycle
    iff it has as many edges as vertices or more."""
    vertices = num_vertices(dec.n)
    if not 0 <= root < vertices:
        raise ValueError(f"root {root} out of range for n={dec.n}")
    found = []
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
        edges = sum(len(adjacency.get(x, ())) for x in depth) // 2
        found.append((far, len(depth), edges >= len(depth)))
    return found
