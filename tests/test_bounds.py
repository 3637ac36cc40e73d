import numpy as np
import pytest

from cubetrees.bounds import bounds_for
from cubetrees.hypercube import num_edges, num_vertices


@pytest.mark.parametrize(
    "n,packing,arb,tau,edges,leftover",
    [
        (1, 0, 1, 1, 1, 1),
        (2, 1, 2, 2, 4, 1),
        (4, 2, 3, 3, 32, 2),
        (5, 2, 3, 3, 80, 18),
        (9, 4, 5, 5, 2304, 260),
    ],
)
def test_closed_forms(n, packing, arb, tau, edges, leftover):
    report = bounds_for(n)
    assert report.tree_packing == packing
    assert report.arboricity == arb
    assert report.tree_number == tau
    assert report.edges == edges
    assert report.leftover == leftover
    assert report.vertices == 2**n


def test_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        bounds_for(0)
    with pytest.raises(ValueError):
        bounds_for(-3)
    # the integer rule of check_dimension, without its cap
    for bad in (True, False, 2.5, 4.0, "4", None, np.bool_(True)):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            bounds_for(bad)
    report = bounds_for(np.int64(30))
    assert type(report.n) is int and report == bounds_for(30)


@pytest.mark.parametrize("n", range(2, 25))
def test_packing_equals_floor_density(n):
    # floor(n * 2^(n-1) / (2^n - 1)) collapses to floor(n/2) for n >= 2,
    # which is the sandwich certifying optimality of the construction
    report = bounds_for(n)
    assert report.tree_packing == report.trivial_upper
    assert report.trivial_upper == num_edges(n) // (num_vertices(n) - 1) == n // 2


def test_degenerate_single_edge_cube():
    # Q_1's lone edge is itself a spanning tree, so the floor-density bound
    # (1) exceeds the formula value floor(1/2) = 0 there; the chain of
    # inequalities still holds
    report = bounds_for(1)
    assert report.tree_packing == 0
    assert report.trivial_upper == 1
    assert report.tree_packing <= report.trivial_upper


@pytest.mark.parametrize("n", range(1, 25))
def test_ceil_density_reaches_arboricity(n):
    report = bounds_for(n)
    ceil_density = -(-num_edges(n) // (num_vertices(n) - 1))
    assert ceil_density >= n // 2 + 1
    assert report.trivial_lower == ceil_density == report.arboricity


@pytest.mark.parametrize("n", range(1, 101))
def test_tree_number_identity(n):
    # ceil((n+1)/2) == floor(n/2) + 1 for every n >= 1
    assert (n + 2) // 2 == n // 2 + 1


@pytest.mark.parametrize("n", range(1, 25))
def test_chain_ordering(n):
    report = bounds_for(n)
    assert report.tree_packing <= report.trivial_upper
    assert report.trivial_upper <= report.trivial_lower
    assert report.trivial_lower <= report.arboricity <= report.tree_number


def test_inequality_chain_examples():
    assert bounds_for(6).trivial_upper == 3  # floor(192/63)
    assert bounds_for(3).trivial_upper == 1  # floor(12/7)
    for n in range(2, 17):
        # room for floor(n/2) edge-disjoint spanning trees, not for one more
        k = n // 2
        assert k <= bounds_for(n).trivial_upper < k + 1
