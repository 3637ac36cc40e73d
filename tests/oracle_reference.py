"""Test inputs and a slow reference for the brute-force oracles.

`hypercube_graph` builds Q_n as a plain edge list, independent of the
bit-arithmetic model in `cubetrees.hypercube`.

`reference_nw_arboricity` is the search `cubetrees.oracle.nw_arboricity` ran
before it counted every subset at once in numpy.  It walks the subsets as
Python ints and counts inner edges with per-vertex adjacency bitmasks, so it
shares no counting code with the library; the property tests require the
two values to agree.

`reference_restricted_growth_strings` is the recursive generator
`cubetrees.oracle.restricted_growth_strings` was before it became a loop;
the tests require the two to yield the same tuples in the same order.

`reference_packing_upper_bound` is the loop `cubetrees.oracle.packing_upper_bound`
ran before it counted every partition's crossing edges at once: it takes the
partitions one at a time and counts each one's crossing edges in Python.
"""

from __future__ import annotations

from typing import Iterator

from cubetrees.oracle import SmallGraph, restricted_growth_strings


def hypercube_graph(n: int) -> SmallGraph:
    """Q_n as a plain edge list."""
    edges = [(v, v | (1 << d)) for v in range(1 << n) for d in range(n) if not v & (1 << d)]
    return SmallGraph(num_vertices=1 << n, edges=tuple(edges))


def reference_restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of {0..n-1} as restricted growth strings, by recursion."""
    a = [0] * n

    def grow(i: int, top: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(a)
            return
        for block in range(top + 2):
            a[i] = block
            yield from grow(i + 1, max(top, block))

    yield from grow(1, 0)


def reference_nw_arboricity(g: SmallGraph) -> int:
    """Arboricity by exhaustive induced-subgraph density maximization."""
    adj = [0] * g.num_vertices
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    best = 0
    for mask in range(3, 1 << g.num_vertices):
        size = mask.bit_count()
        if size < 2:
            continue
        inner = 0
        rest = mask
        while rest:
            low = rest & -rest
            inner += (adj[low.bit_length() - 1] & mask).bit_count()
            rest ^= low
        inner //= 2
        if inner:
            best = max(best, -(-inner // (size - 1)))
    return best


def reference_packing_upper_bound(g: SmallGraph) -> int:
    """Min over partitions with >= 2 parts of floor(cross / (parts - 1))."""
    best: int | None = None
    for assign in restricted_growth_strings(g.num_vertices):
        parts = max(assign) + 1
        if parts < 2:
            continue
        cross = sum(1 for u, v in g.edges if assign[u] != assign[v])
        value = cross // (parts - 1)
        if best is None or value < best:
            best = value
            if best == 0:
                break
    assert best is not None  # n >= 2 always has the all-singletons partition
    return best
