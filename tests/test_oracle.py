import pytest
from hypothesis import example, given, settings, strategies as st

from cubetrees.bounds import bounds_for
from cubetrees.construct import construct
from cubetrees.hypercube import CapExceededError
from cubetrees.oracle import (
    EdgeListParseError,
    SmallGraph,
    load_edge_list,
    nw_arboricity,
    packing_upper_bound,
    restricted_growth_strings,
)

from oracle_reference import (
    hypercube_graph,
    reference_nw_arboricity,
    reference_packing_upper_bound,
    reference_restricted_growth_strings,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
SPOT_CHECK_VERTEX_CAP = 8


def without_edges(g: SmallGraph, removed: set[tuple[int, int]]) -> SmallGraph:
    removed = {(min(u, v), max(u, v)) for u, v in removed}
    return SmallGraph(
        num_vertices=g.num_vertices,
        edges=tuple(e for e in g.edges if e not in removed),
    )


def catlin_spot_check(g: SmallGraph, removed: set[tuple[int, int]]) -> bool:
    """After deleting |removed| edges from g, can |removed| edge-disjoint
    spanning trees still be packed?

    Statement-level sanity test only: the caller is responsible for g being
    2*|removed|-edge-connected, which is what makes a True answer expected.
    """
    if g.num_vertices > SPOT_CHECK_VERTEX_CAP:
        raise CapExceededError(
            f"{g.num_vertices} vertices exceeds the spot-check cap "
            f"of {SPOT_CHECK_VERTEX_CAP}"
        )
    return packing_upper_bound(without_edges(g, removed)) >= len(removed)


def complete_graph(v):
    return SmallGraph(v, tuple((i, j) for i in range(v) for j in range(i + 1, v)))


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return SmallGraph(10, tuple(outer + inner + spokes))


def test_small_graph_validation():
    with pytest.raises(ValueError):
        SmallGraph(3, ((0, 0),))  # loop
    with pytest.raises(ValueError):
        SmallGraph(3, ((0, 1), (1, 0)))  # parallel edge, reversed
    with pytest.raises(ValueError):
        SmallGraph(2, ((0, 2),))  # out of range
    with pytest.raises(ValueError):
        SmallGraph(0, ())
    g = SmallGraph(3, ((2, 1), (0, 1)))
    assert g.edges == ((0, 1), (1, 2))  # canonical order


@pytest.mark.parametrize("n", range(1, 9))
def test_partition_enumeration_counts_and_canonicity(n):
    seen = set()
    for assign in restricted_growth_strings(n):
        assert assign[0] == 0
        top = 0
        for value in assign:
            assert value <= top + 1
            top = max(top, value)
        seen.add(assign)
    assert len(seen) == BELL[n]


@pytest.mark.parametrize("n", range(1, 10))
def test_partitions_come_in_the_recursive_order(n):
    assert list(restricted_growth_strings(n)) == list(reference_restricted_growth_strings(n))


def test_partitions_need_an_element():
    with pytest.raises(ValueError):
        next(restricted_growth_strings(0))


def test_arboricity_examples():
    assert nw_arboricity(SmallGraph(2, ((0, 1),))) == 1
    assert nw_arboricity(complete_graph(3)) == 2
    assert nw_arboricity(complete_graph(4)) == 2
    assert nw_arboricity(hypercube_graph(3)) == 2
    assert nw_arboricity(hypercube_graph(4)) == 3  # 16 vertices, at the cap
    assert nw_arboricity(petersen()) == 2  # pinned brute-force regression value


def test_arboricity_errors():
    with pytest.raises(ValueError):
        nw_arboricity(SmallGraph(3, ()))
    with pytest.raises(CapExceededError):
        nw_arboricity(SmallGraph(17, ((0, 1),)))


def test_arboricity_error_messages():
    with pytest.raises(ValueError, match=r"^arboricity is undefined for an edgeless graph$"):
        nw_arboricity(SmallGraph(20, ()))
    with pytest.raises(
        CapExceededError, match=r"^17 vertices exceeds the arboricity oracle cap of 16$"
    ):
        nw_arboricity(SmallGraph(17, ((0, 1),)))


def test_packing_examples():
    assert packing_upper_bound(hypercube_graph(2)) == 1
    assert packing_upper_bound(hypercube_graph(3)) == 1
    assert packing_upper_bound(complete_graph(4)) == 2
    assert packing_upper_bound(petersen()) == 1  # pinned brute-force regression value
    disconnected = SmallGraph(4, ((0, 1), (2, 3)))
    assert packing_upper_bound(disconnected) == 0


def test_packing_errors():
    with pytest.raises(ValueError):
        packing_upper_bound(SmallGraph(1, ()))
    with pytest.raises(CapExceededError):
        packing_upper_bound(SmallGraph(11, ((0, 1),)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_arboricity_agrees_with_closed_form(n):
    assert nw_arboricity(hypercube_graph(n)) == bounds_for(n).arboricity


@pytest.mark.parametrize("n", [2, 3])
def test_packing_agrees_with_closed_form(n):
    assert packing_upper_bound(hypercube_graph(n)) == bounds_for(n).tree_packing


@pytest.mark.parametrize("n", [2, 3])
def test_constructed_tree_count_is_optimal_by_independent_search(n):
    # the partition oracle is an upper bound, so hitting it certifies the
    # constructed family is maximum at tiny scale
    assert construct(n).k == packing_upper_bound(hypercube_graph(n))


def test_catlin_spot_check_single_removals():
    q2 = hypercube_graph(2)
    assert all(catlin_spot_check(q2, {e}) for e in q2.edges)
    q3 = hypercube_graph(3)
    assert all(catlin_spot_check(q3, {e}) for e in q3.edges)


def test_catlin_spot_check_cap():
    with pytest.raises(CapExceededError):
        catlin_spot_check(hypercube_graph(4), {(0, 1)})


def test_load_edge_list():
    g = load_edge_list("# a square\n0 1\n1 3\n\n2 3  # bottom\n0 2\n")
    assert g.num_vertices == 4
    assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))
    with pytest.raises(EdgeListParseError):
        load_edge_list("0 1 2\n")
    with pytest.raises(EdgeListParseError):
        load_edge_list("0 x\n")
    with pytest.raises(EdgeListParseError):
        load_edge_list("")
    with pytest.raises(EdgeListParseError):
        load_edge_list("-1 0\n")
    with pytest.raises(EdgeListParseError):
        load_edge_list("0 0\n")  # loop


@st.composite
def small_graphs(draw, min_vertices=3, max_vertices=7, min_edges=1):
    v = draw(st.integers(min_vertices, max_vertices))
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=min_edges))
    return SmallGraph(v, tuple(edges))


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_density_bounds_hold_on_random_graphs(g):
    edges = len(g.edges)
    floor_density = edges // (g.num_vertices - 1)
    ceil_density = -(-edges // (g.num_vertices - 1))
    assert packing_upper_bound(g) <= floor_density
    assert nw_arboricity(g) >= ceil_density


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_packing_never_exceeds_arboricity(g):
    assert packing_upper_bound(g) <= nw_arboricity(g)


@settings(max_examples=40, deadline=None)
@given(small_graphs(2, 16))
@example(complete_graph(16))
@example(SmallGraph(16, tuple((i, i + 1) for i in range(15))))
def test_arboricity_equals_the_reference(g):
    assert nw_arboricity(g) == reference_nw_arboricity(g)


@settings(max_examples=60, deadline=None)
@given(small_graphs(2, 8, min_edges=0))
@example(SmallGraph(2, ()))
@example(SmallGraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))))  # two triangles
@example(complete_graph(8))
def test_packing_equals_the_reference(g):
    assert packing_upper_bound(g) == reference_packing_upper_bound(g)
