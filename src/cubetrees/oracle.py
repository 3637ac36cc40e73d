"""Brute-force oracles on small general graphs.

These deliberately trade efficiency for independence: exhaustive subset and
partition enumeration with hard vertex caps, used to cross-validate the
closed-form cube invariants and the constructed tree families at desk scale.

Two classical exact characterizations drive the oracles:

  * arboricity equals the maximum over vertex subsets S (|S| >= 2) of
    ceil(e(S) / (|S|-1)), where e(S) counts edges inside S.  Restricting to
    induced subgraphs is lossless because dropping edges never raises the
    ratio, which cuts the search from 2^|E| subgraphs to 2^|V| subsets.
  * the spanning-tree packing number equals the minimum over vertex
    partitions P (at least two parts) of floor(cross(P) / (|P|-1)), where
    cross(P) counts edges joining different parts.

The arboricity oracle still visits every subset, but counts them all at
once in numpy: subset sizes one vertex at a time and inner edges one edge
at a time, over the array of all 2^|V| subset ids.  Partitions are
enumerated as restricted growth strings, the canonical duplicate-free
encoding: a[0] = 0 and a[i] <= max(a[:i]) + 1, and their crossing edges are
counted over one table of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .hypercube import CapExceededError

ARBORICITY_VERTEX_CAP = 16  # 2^V induced subgraphs
PACKING_VERTEX_CAP = 10  # Bell(V) vertex partitions


class EdgeListParseError(ValueError):
    """An edge-list text input could not be parsed into a simple graph."""


@dataclass(frozen=True)
class SmallGraph:
    """Simple undirected graph on vertices 0..num_vertices-1.

    Edges are stored as sorted (u, v) pairs with u < v; loops and parallel
    edges are rejected.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.num_vertices < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(key)
        object.__setattr__(self, "edges", tuple(sorted(seen)))


def load_edge_list(text: str) -> SmallGraph:
    """Parse a plain-text edge list: one "u v" pair per line, 0-based ids,
    blank lines and '#' comments ignored.  Vertex count is max id + 1."""
    edges = []
    top = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(
                f"line {lineno}: non-integer vertex in {raw!r}"
            ) from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"line {lineno}: negative vertex id in {raw!r}")
        top = max(top, u, v)
        edges.append((u, v))
    if not edges:
        raise EdgeListParseError("edge list is empty")
    try:
        return SmallGraph(num_vertices=top + 1, edges=tuple(edges))
    except ValueError as exc:
        raise EdgeListParseError(str(exc)) from None


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of {0..n-1} as restricted growth strings.

    Yields Bell(n) assignment tuples in lexicographic order; a[i] is the
    block of element i, blocks are numbered by first appearance.  Each head
    a[:n - 1] comes with every last entry it allows; the next head raises
    its last entry not above its prefix maximum and zeroes those after it.
    """
    if n < 1:
        raise ValueError("need at least one element")
    if n == 1:
        yield (0,)
        return
    a, top = [0] * (n - 1), [0] * (n - 1)  # the head; top[i] = max(a[:i + 1])
    while True:
        head = tuple(a)
        for block in range(top[-1] + 2):
            yield head + (block,)
        i = n - 2
        while i and a[i] > top[i - 1]:
            i -= 1
        if not i:
            return
        a[i] += 1
        top[i] = max(top[i - 1], a[i])
        a[i + 1 :] = [0] * (n - 2 - i)
        top[i + 1 :] = [top[i]] * (n - 2 - i)


def nw_arboricity(g: SmallGraph) -> int:
    """Arboricity by exhaustive induced-subgraph density maximization."""
    if not g.edges:
        raise ValueError("arboricity is undefined for an edgeless graph")
    if g.num_vertices > ARBORICITY_VERTEX_CAP:
        raise CapExceededError(
            f"{g.num_vertices} vertices exceeds the arboricity oracle cap "
            f"of {ARBORICITY_VERTEX_CAP}"
        )
    # Row x of bits is bit x of every subset id, 0..2^V - 1, so one numpy
    # pass over a row or a pair of rows covers all subsets at once.
    subsets = np.arange(1 << g.num_vertices, dtype=np.int32)
    bits = [(subsets >> x & 1).astype(np.uint8) for x in range(g.num_vertices)]
    size = np.zeros(subsets.size, dtype=np.int16)
    for row in bits:
        size += row
    inner = np.zeros(subsets.size, dtype=np.int16)
    for u, v in g.edges:
        inner += bits[u] & bits[v]
    # A subset of fewer than two vertices has no inner edge, so its ratio
    # is 0 whatever the nonzero denominator.
    return int((-(-inner // np.maximum(size - 1, 1))).max())


def packing_upper_bound(g: SmallGraph) -> int:
    """Maximum edge-disjoint spanning tree count by partition enumeration.

    Returns min over partitions with >= 2 parts of floor(cross/(parts-1));
    a disconnected graph yields 0 via any partition separating components.
    """
    if g.num_vertices < 2:
        raise ValueError("need at least 2 vertices")
    if g.num_vertices > PACKING_VERTEX_CAP:
        raise CapExceededError(
            f"{g.num_vertices} vertices exceeds the packing oracle cap "
            f"of {PACKING_VERTEX_CAP}"
        )
    # Row r of parts is partition r's block of every vertex, so one != per
    # edge column counts that edge's crossings over all partitions at once.
    parts = np.array(list(restricted_growth_strings(g.num_vertices)), dtype=np.int8)
    cross = np.zeros(len(parts), dtype=np.int16)
    for u, v in g.edges:
        cross += parts[:, u] != parts[:, v]
    blocks = parts.max(axis=1).astype(np.int16) + 1
    several = blocks >= 2  # n >= 2 always has the all-singletons partition
    return int((cross[several] // (blocks[several] - 1)).min())
