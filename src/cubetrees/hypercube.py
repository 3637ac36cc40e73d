"""Vectorized model of the n-dimensional hypercube.

Vertices are integers in [0, 2^n); bit i of the label is coordinate i, and
two vertices are adjacent iff their labels differ in exactly one bit.  An
edge is named by its endpoint u whose bit d is 0, plus the dimension d
along which it runs.

Edges also get a dense integer id, laid out dimension-major:

    edge_id = d * 2^(n-1) + (u & (2^d - 1)) + ((u >> (d+1)) << d)

that is, bit d is removed from u and the bits above it move down one.  For
each dimension there are exactly 2^(n-1) edges, so ids cover
[0, n * 2^(n-1)) bijectively.  This order is the normative edge order for
label arrays and file formats throughout the package.

An edge set can also be held per vertex: bit d of mask[x] marks the edge
x -- x ^ 1<<d, in uint8 up to n = 8, uint16 up to n = 16 and uint32 above.
bit_planes builds one per label bit, a block of vertices at a time, and
plane_masks those of label values from them.  walk.py fills the planes and
searches groups of trees over these masks, for broadcast and for the
verifier.
"""

from __future__ import annotations

import numpy as np

# The largest n that construct + verify has been run at: n = 24 is ~201M
# one-byte edge labels, verified in under a minute and 2 GB (a slow test
# holds it there; verify alone took 3.2-3.5 s and 712-718 MB of peak RSS
# on two CPUs, in three fresh scripts/stress_large.py -n 24 runs).
DIMENSION_CAP = 24


class CapExceededError(ValueError):
    """A size cap (dimension or oracle vertex count) was exceeded."""


class MalformedEdgeError(ValueError):
    """An edge or edge id is not well-formed for the given dimension."""


def check_integer(name: str, value: int, least: int) -> int:
    """value as a Python int; a bool, a non-integer or a value below least
    raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def check_dimension(n: int) -> int:
    """Validate a cube dimension, returning it as a Python int."""
    n = check_integer("dimension", n, 1)
    if n > DIMENSION_CAP:
        shown = n if n.bit_length() <= 64 else f"of {n.bit_length()} bits"  # str(n) stops at 4300 digits
        raise CapExceededError(
            f"dimension {shown} exceeds cap {DIMENSION_CAP} "
            f"(Q_{DIMENSION_CAP} has {num_edges(DIMENSION_CAP)} edge labels)"
        )
    return n


def num_vertices(n: int) -> int:
    return 1 << n


def num_edges(n: int) -> int:
    return n << (n - 1)


def edge_endpoints(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode an edge-id array to (u, v) endpoint arrays, u with bit d clear."""
    ids = np.asarray(ids, dtype=np.int64)
    half = np.int64(1) << (n - 1)
    d = ids >> (n - 1)
    s = ids & (half - 1)
    low = (np.int64(1) << d) - 1
    u = (s & low) | ((s >> d) << (d + 1))
    v = u | (np.int64(1) << d)
    return u, v


def bit_planes(labels: np.ndarray, n: int, planes: np.ndarray, vertices: range) -> None:
    """Fill the columns vertices of planes, an aligned block of a power of
    two vertices, with per-vertex masks of the label bits: bit d of
    planes[b, x] is bit b of the label of the edge x -- x ^ 1<<d.  Filling
    one block at a time lets two threads share the planes.

    Dimension block d of the edge-id layout, cut into rows of 2^d edges,
    has edge i of row r from vertex r * 2^(d+1) + i to the vertex 2^d above
    it.  So where bit d is fixed in the block, the block's edges along d are
    one run of as many labels as it has vertices; where bit d varies, they
    are half as many, every row repeated twice.  Each dimension's run is
    taken once and ANDed with every plane's bit.  From the highest dimension
    down, eight at a time collect in one byte per plane and vertex, shifted
    by doubling it (uint8 <<= is not vectorized); the planes then shift up
    a byte and take it in.
    """
    start, size = vertices.start, len(vertices)
    block = planes[:, start : start + size]
    bits = (np.uint8(1) << np.arange(len(planes), dtype=np.uint8)).reshape(-1, 1)
    half = 1 << (n - 1)
    byte = np.zeros(block.shape, np.uint8)  # a full group of eight doublings clears it
    block[...] = 0
    for d in reversed(range(n)):
        at = d * half + (start >> d + 1 << d) + (start & (1 << d) - 1)  # start's edge along d
        run = labels[at : at + size]
        if size >> d > 1:  # bit d varies in the block
            run = np.repeat(labels[at : at + size // 2].reshape(-1, 1 << d), 2, axis=0).reshape(-1)
        np.add(byte, byte, out=byte)
        byte |= (run & bits != 0).view(np.uint8)
        if d % 8 == 0:
            block <<= 8
            block |= byte


def plane_masks(planes: np.ndarray, values, n: int) -> np.ndarray:
    """Per-vertex masks of the edges labelled each of values, one row per
    value (bit d of masks[i, x] is the edge x -- x ^ 1<<d).  Such a label has
    every bit of values[i] and no other, so a row ORs the planes of the bits
    it lacks, complements that and ANDs in the planes of the bits it has, in
    place.  A value with a bit above every plane labels no edge."""
    full = planes.dtype.type((1 << n) - 1)
    masks = np.zeros((len(values), 1 << n), dtype=planes.dtype)
    for mask, value in zip(masks, values):
        if value >> len(planes):
            continue
        for b, plane in enumerate(planes):
            if not value >> b & 1:
                mask |= plane
        mask ^= full
        for b, plane in enumerate(planes):
            if value >> b & 1:
                mask &= plane
    return masks
