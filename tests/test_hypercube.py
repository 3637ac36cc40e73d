import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubetrees.hypercube import (
    CapExceededError,
    MalformedEdgeError,
    check_dimension,
    bit_planes,
    edge_endpoints,
    num_edges,
    num_vertices,
    plane_masks,
)
from construct_reference import embed
from mask_reference import all_planes, reference_bit_planes, reference_edge_masks
from cube_reference import Edge, edge_from_id, edge_id, squeeze_bit, unsqueeze_bit
from test_verify import random_labels


def brute_force_edges(n):
    """All cube edges as frozen vertex pairs, by scanning every vertex's neighbors."""
    return {
        frozenset((v, v ^ (1 << d))) for v in range(num_vertices(n)) for d in range(n)
    }


@pytest.mark.parametrize("n", range(1, 11))
def test_edge_count_matches_formula(n):
    assert len(brute_force_edges(n)) == num_edges(n) == n * 2 ** (n - 1)


def test_edge_id_examples():
    assert edge_id(Edge(0b00, 0), 2) == 0
    assert edge_id(Edge(0b01, 1), 2) == 3
    assert num_edges(3) == 12


def test_edge_from_id_examples():
    assert edge_from_id(0, 2) == Edge(0b00, 0)
    assert edge_from_id(3, 2) == Edge(0b01, 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_edge_id_is_a_bijection(n):
    seen = set()
    for eid in range(num_edges(n)):
        e = edge_from_id(eid, n)
        assert edge_id(e, n) == eid
        pair = frozenset(e.endpoints())
        assert pair not in seen
        seen.add(pair)
    assert seen == brute_force_edges(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_round_trip_all_ids(n):
    for eid in range(num_edges(n)):
        assert edge_id(edge_from_id(eid, n), n) == eid


def test_malformed_edges_rejected():
    with pytest.raises(MalformedEdgeError):
        edge_id(Edge(0, 2), 2)  # dimension index out of range
    with pytest.raises(MalformedEdgeError):
        edge_id(Edge(0b01, 0), 2)  # bit d already set
    with pytest.raises(MalformedEdgeError):
        edge_id(Edge(4, 0), 2)  # vertex out of range
    with pytest.raises(MalformedEdgeError):
        edge_from_id(4, 2)
    with pytest.raises(MalformedEdgeError):
        edge_from_id(-1, 2)


def test_dimension_cap():
    assert check_dimension(24) == 24
    with pytest.raises(ValueError):
        check_dimension(0)
    with pytest.raises(ValueError, match="must be an integer"):
        check_dimension(True)
    assert type(check_dimension(np.int64(3))) is int
    with pytest.raises(CapExceededError):
        check_dimension(25)


@pytest.mark.parametrize(
    "n, shown",
    [(20000, "20000"), (10**9, "1000000000"), (10**5000, "of 16610 bits")],
    ids=["2e4", "1e9", "1e5000"],
)
def test_a_dimension_far_above_the_cap_is_refused_at_once(n, shown):
    # The message names the cap's own edge count: Q_n's would be an n-bit
    # integer, and Python refuses to print one past 4300 digits.
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match=f"^dimension {shown} exceeds cap 24 "):
            check_dimension(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_embed_identity_and_placement():
    for v in range(4):
        assert embed(v, 0, 2) == v
    assert embed(0b01, 0b01, 2) == 0b0101
    assert embed(0b11, 0b10, 2) == 0b1011


def test_embed_images_partition_vertices():
    at = 2
    images = [
        {embed(v, bits, at) for v in range(1 << at)} for bits in range(4)
    ]
    union = set().union(*images)
    assert union == set(range(1 << (at + 2)))
    assert sum(len(im) for im in images) == len(union)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_vertex_has_degree_n(n):
    u, v = edge_endpoints(np.arange(num_edges(n)), n)
    degrees = np.bincount(np.concatenate([u, v]), minlength=num_vertices(n))
    assert (degrees == n).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_vectorized_decode_matches_scalar(n):
    ids = np.arange(num_edges(n))
    u, v = edge_endpoints(ids, n)
    for eid in range(num_edges(n)):
        e = edge_from_id(eid, n)
        assert (u[eid], v[eid]) == e.endpoints()


def edge_masks(labels, values, n):
    return plane_masks(all_planes(labels, n), values, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3), st.data())
def test_edge_masks_agree_with_edge_endpoints(n, seed, skew, data):
    # skew > 0 makes one label dominate; value k + 1 labels no edge at all.
    dec = random_labels(n, seed, skew)
    ids = np.arange(num_edges(n))
    u, v = edge_endpoints(ids, n)
    d = ids >> (n - 1)
    values = data.draw(st.lists(st.integers(0, dec.k + 1), min_size=1, max_size=dec.k + 3))
    masks = edge_masks(dec.labels, values, n)
    assert masks.shape == (len(values), num_vertices(n))
    for value, mask in zip(values, masks):
        assert np.array_equal(mask, edge_masks(dec.labels, [value], n)[0])
        carried = dec.labels == value
        assert np.array_equal((mask[u] >> d) & 1 == 1, carried)
        assert np.array_equal((mask[v] >> d) & 1 == 1, carried)
        assert not (mask >> n).any()


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([*range(1, 13), 16, 17]),  # every mask dtype
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 3, 7, 16, 100, 256]),
    st.lists(st.integers(0, 255), max_size=6),
)
def test_plane_masks_equal_the_reference(n, seed, top, values):
    # labels above k and values no edge carries included: the planes cover
    # the labels' bits and a value with a bit above them gets a zero row
    labels = np.random.default_rng(seed).integers(0, top, num_edges(n)).astype(np.uint8)
    values += [0, 1, top - 1, min(top, 255), 16 + n // 2]
    planes = all_planes(labels, n)
    assert len(planes) == int(labels.max()).bit_length()
    masks = plane_masks(planes, values, n)
    want = reference_edge_masks(labels, values, n)
    assert masks.dtype == want.dtype == np.min_scalar_type((1 << n) - 1)
    assert np.array_equal(masks, want)


@pytest.mark.parametrize("n", [3, 9, 17])
def test_planes_filled_by_rows_equal_planes_filled_at_once(n):
    # the row-wise reference fill, odd rows then even rows, against the
    # package's fill of every plane as one block of the whole cube
    labels = np.random.default_rng(n).integers(0, 13, num_edges(n)).astype(np.uint8)
    planes = all_planes(labels, n)
    parts = np.full_like(planes, 0xAB)
    for rows in (slice(1, None, 2), slice(0, None, 2)):
        reference_bit_planes(labels, n, parts, rows)
    assert np.array_equal(parts, planes)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 17), st.integers(0, 2**32 - 1), st.integers(1, 256), st.data())
def test_planes_filled_in_blocks_equal_the_reference(n, seed, top, data):
    # Labels below top, so 0..8 planes, filled in blocks of a power-of-two
    # size from one vertex (every bit fixed in the block) to the whole cube
    # (every bit varies), in shuffled order, into planes pre-filled with
    # 0xAB.  At most 64 blocks are filled; the others must stay untouched.
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, top, num_edges(n)).astype(np.uint8)
    want = np.empty((int(labels.max()).bit_length(), num_vertices(n)), np.min_scalar_type(num_vertices(n) - 1))
    reference_bit_planes(labels, n, want, range(len(want)))
    size = 1 << data.draw(st.integers(0, n))
    starts = rng.permutation(num_vertices(n) // size)[:64] * size
    planes = np.full_like(want, 0xAB)
    for start in starts.tolist():
        bit_planes(labels, n, planes, range(start, start + size))
    filled = np.isin(np.arange(num_vertices(n)) // size, starts // size)
    assert np.array_equal(planes[:, filled], want[:, filled])
    assert (planes[:, ~filled] == 0xAB).all()
    values = [0, 1, top - 1, min(top, 255), *data.draw(st.lists(st.integers(0, 255), max_size=4))]
    masks = plane_masks(planes, values, n)
    assert np.array_equal(masks[:, filled], reference_edge_masks(labels, values, n)[:, filled])


@pytest.mark.parametrize(
    "n, dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16), (17, np.uint32)]
)
def test_edge_masks_take_the_narrowest_dtype(n, dtype):
    # every edge labelled 1: all n bits set at every vertex
    labels = np.ones(num_edges(n), dtype=np.uint8)
    planes = all_planes(labels, n)
    masks = plane_masks(planes, [0, 1], n)
    assert planes.dtype == masks.dtype == dtype and masks.shape == (2, num_vertices(n))
    assert not masks[0].any() and (masks[1] == (1 << n) - 1).all()
    # no label above 0: no plane, and every edge carries 0
    none = all_planes(labels - 1, n)
    assert none.shape == (0, num_vertices(n)) and none.dtype == dtype
    assert (plane_masks(none, [0, 1], n) == [[(1 << n) - 1], [0]]).all()


@given(st.integers(1, 16), st.data())
def test_round_trip_random(n, data):
    eid = data.draw(st.integers(0, num_edges(n) - 1))
    e = edge_from_id(eid, n)
    assert edge_id(e, n) == eid
    assert 0 <= e.u < num_vertices(n)
    assert not e.u & (1 << e.d)
    assert e.v == e.u | (1 << e.d)


@given(st.integers(0, 2**20 - 1), st.integers(0, 19))
def test_squeeze_unsqueeze_inverse(value, d):
    squeezed = squeeze_bit(value & ~(1 << d), d)
    assert unsqueeze_bit(squeezed, d) == value & ~(1 << d)
    assert squeezed < 1 << 20
