"""Slow reference for the arboricity oracle: one Python loop per vertex subset.

This is the search `cubetrees.oracle.nw_arboricity` ran before it counted
every subset at once in numpy.  It walks the subsets as Python ints and
counts inner edges with per-vertex adjacency bitmasks, so it shares no
counting code with the library; the property tests require the two values
to agree.
"""

from __future__ import annotations

from cubetrees.oracle import SmallGraph


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
