"""Closed-form decomposition invariants of the n-cube.

All quantities are exact integer arithmetic (Python ints never overflow, so
n = 24 scale counts are safe).  The floor and ceiling of |E|/(|V|-1) sandwich
the packing number and arboricity:

    packing <= floor(|E|/(|V|-1)) <= ceil(|E|/(|V|-1)) <= arboricity <= tree number

For the n-cube the sandwich is tight on both ends, which certifies the
constructed tree count as optimal without any search: floor(n*2^(n-1)/(2^n-1))
equals floor(n/2) for every n >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypercube import check_integer, num_edges, num_vertices


@dataclass(frozen=True)
class BoundsReport:
    """Exact decomposition invariants for one cube dimension.

    tree_packing is the closed-form value floor(n/2).  Note the n = 1 cube
    is degenerate: the single edge is itself a spanning tree, so the true
    packing number is 1 there while the formula gives 0; the tightness
    identity tree_packing == trivial_upper therefore holds only for n >= 2.
    """

    n: int
    vertices: int
    edges: int
    tree_packing: int  # maximum number of edge-disjoint spanning trees
    arboricity: int  # minimum number of forests covering all edges
    tree_number: int  # minimum number of trees partitioning all edges
    leftover: int  # edges left uncovered by the maximum tree packing
    trivial_upper: int  # floor(|E|/(|V|-1)), upper bound on the packing
    trivial_lower: int  # ceil(|E|/(|V|-1)), lower bound on arboricity


def bounds_for(n: int) -> BoundsReport:
    """Closed forms for Q_n, with the bound chain asserted (no dimension cap)."""
    n = check_integer("dimension", n, 1)
    k = n // 2
    edges = num_edges(n)
    vertices = num_vertices(n)
    report = BoundsReport(
        n=n,
        vertices=vertices,
        edges=edges,
        tree_packing=k,
        arboricity=k + 1,
        tree_number=(n + 2) // 2,  # ceil((n+1)/2), equal to k + 1 for every n
        leftover=k if n % 2 == 0 else (1 << (n - 1)) + k,
        trivial_upper=edges // (vertices - 1),
        trivial_lower=-(-edges // (vertices - 1)),
    )
    assert report.tree_packing <= report.trivial_upper <= report.trivial_lower
    assert report.trivial_lower <= report.arboricity <= report.tree_number
    if n >= 2:
        assert report.tree_packing == report.trivial_upper
    return report

