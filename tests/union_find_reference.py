"""Slow reference verifier: per-edge union-find over decoded endpoints.

This is the connectivity check the library used before its bitmask
hooking.
It stays here as an oracle: `reference_report` rebuilds a VerifyReport
with it, and the property tests require the library's report to match.
"""

from __future__ import annotations

import numpy as np

from cubetrees.hypercube import edge_endpoints, num_edges, num_vertices
from cubetrees.verify import (
    LeftoverCheck,
    MalformedDecompositionError,
    TreeCheck,
    VerifyReport,
)


class UnionFind:
    """Array-based disjoint sets with path compression."""

    __slots__ = ("parent", "merges")

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))
        self.merges = 0

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra = self.find(a)
        rb = self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.merges += 1
        return True


def union_all(u: np.ndarray, v: np.ndarray, size: int) -> UnionFind:
    uf = UnionFind(size)
    for a, b in zip(u.tolist(), v.tolist()):
        uf.union(a, b)
    return uf


def _ends(edge_ids, n):
    return edge_endpoints(np.asarray(edge_ids, dtype=np.int64).reshape(-1), n)


def reference_is_spanning_tree(edge_ids, n: int) -> bool:
    u, v = _ends(edge_ids, n)
    vertices = num_vertices(n)
    return u.size == vertices - 1 and union_all(u, v, vertices).merges == vertices - 1


def reference_is_matching(edge_ids, n: int) -> bool:
    u, v = _ends(edge_ids, n)
    ends = np.concatenate([u, v])
    return np.unique(ends).size == ends.size


def reference_forest_components(edge_ids, n: int) -> tuple[bool, int]:
    u, v = _ends(edge_ids, n)
    if u.size == 0:
        return True, 0
    uf = union_all(u, v, num_vertices(n))
    touched = int(np.unique(np.concatenate([u, v])).size)
    return uf.merges == u.size, touched - uf.merges


def reference_report(dec) -> VerifyReport:
    """verify_decomposition rebuilt on union-find, check for check.  Like
    the library, it reads only dec.n and dec.labels."""
    n, labels = dec.n, dec.labels
    k = n // 2
    if labels.dtype != np.uint8 or labels.shape != (num_edges(n),) or (labels.size and int(labels.max()) > k):
        raise MalformedDecompositionError("malformed label array")
    vertices = num_vertices(n)
    trees = []
    for j in range(1, k + 1):
        u, v = _ends(np.flatnonzero(labels == j), n)
        touched = np.zeros(vertices, dtype=bool)
        touched[u] = touched[v] = True
        trees.append(
            TreeCheck(
                label=j,
                edge_count=int(u.size),
                size_ok=u.size == vertices - 1,
                connected=vertices - union_all(u, v, vertices).merges == 1,
                incident_to_all=bool(touched.all()),
            )
        )
    leftover_ids = np.flatnonzero(labels == 0)
    even = n % 2 == 0
    if even:
        leftover = LeftoverCheck(
            size=int(leftover_ids.size),
            expected_size=k,
            is_matching=reference_is_matching(leftover_ids, n),
            is_forest=None,
            components=None,
            expected_components=None,
        )
    else:
        forest, comps = reference_forest_components(leftover_ids, n)
        leftover = LeftoverCheck(
            size=int(leftover_ids.size),
            expected_size=(1 << (n - 1)) + k,
            is_matching=None,
            is_forest=forest,
            components=comps,
            expected_components=1 if n == 1 else k,
        )
    return VerifyReport(
        n=n,
        k=k,
        kind="even" if even else "odd",
        partition_ok=True,
        trees=tuple(trees),
        leftover=leftover,
    )
