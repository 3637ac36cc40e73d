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

An edge set given by a label array can also be held per vertex: edge_masks
sets bit d of mask[x] for the edge x -- x ^ 1<<d, one row per label value,
in uint8 up to n = 8, uint16 up to n = 16 and uint32 above.  The searches
of walk.py go through stacked rows of it: broadcast walks groups of trees,
and on large cubes the verifier walks each tree label.  The verifier's
hooking reads edge ends straight from the dimension blocks instead.
"""

from __future__ import annotations

import numpy as np

# The largest n that construct + verify has been run at: n = 24 is ~201M
# one-byte edge labels, verified in under a minute and 2 GB (a slow test
# holds it there; verify alone takes about 8 s and 0.6 GB of peak RSS on two
# CPUs, 13 s and 0.5 GB on one).
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
        raise CapExceededError(
            f"dimension {n} exceeds cap {DIMENSION_CAP} (~{num_edges(n)} edge labels)"
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


def edge_masks(labels: np.ndarray, values, n: int) -> np.ndarray:
    """Per-vertex bitmasks of the edges labelled each of values, one row per
    value, in the smallest unsigned dtype that holds n bits.

    Bit d of masks[i, x] is the edge x -- x ^ 1<<d when it is labelled
    values[i].

    Dimension block d of the edge-id layout, cut into rows of 2^d edges,
    has edge i of row r from vertex r * 2^(d+1) + i to the vertex 2^d above
    it.  So the block's comparison with a value, every row repeated twice,
    lines up with the vertex array and gives bit d to both ends of every
    edge in the block.  The block is compared with every value at once and
    the result repeated once; the bits go in from the highest dimension
    down, each shifting the ones before it up by one.
    """
    dtype = np.min_scalar_type((1 << n) - 1)  # uint8 up to n = 8, uint16 to 16, else uint32
    values = np.asarray(values, dtype=labels.dtype).reshape(-1, 1, 1)
    half = 1 << (n - 1)
    masks = np.zeros((len(values), 1 << n), dtype=dtype)
    for d in reversed(range(n)):
        block = labels[d * half : (d + 1) * half].reshape(half >> d, 1 << d)
        masks <<= 1
        masks |= np.repeat(block == values, 2, axis=1).reshape(len(values), -1)
    return masks
