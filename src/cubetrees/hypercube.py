"""Bit-arithmetic model of the n-dimensional hypercube.

Vertices are integers in [0, 2^n); bit i of the label is coordinate i, and
two vertices are adjacent iff their labels differ in exactly one bit.  An
edge is stored canonically as (u, d): the endpoint whose bit d is 0, plus
the dimension d along which the edge runs.

Edges also get a dense integer id, laid out dimension-major:

    edge_id = d * 2^(n-1) + squeeze_bit(u, d)

where squeeze_bit removes bit d from u and closes the gap.  For each
dimension there are exactly 2^(n-1) edges, so ids cover [0, n * 2^(n-1))
bijectively.  This order is the normative edge order for label arrays and
file formats throughout the package.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# The largest n that construct + verify has been run at: n = 24 is ~201M
# one-byte edge labels, verified in about half a minute under 1 GB.
DIMENSION_CAP = 24


class CapExceededError(ValueError):
    """A size cap (dimension or oracle vertex count) was exceeded."""


class MalformedEdgeError(ValueError):
    """An edge or edge id is not well-formed for the given dimension."""


class Edge(NamedTuple):
    """Canonical hypercube edge: u has bit d clear, the other endpoint is u | 1<<d."""

    u: int
    d: int

    @property
    def v(self) -> int:
        return self.u | (1 << self.d)

    def endpoints(self) -> tuple[int, int]:
        return self.u, self.v


def check_dimension(n: int) -> int:
    """Validate a cube dimension, returning it unchanged."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if n > DIMENSION_CAP:
        raise CapExceededError(
            f"dimension {n} exceeds cap {DIMENSION_CAP} (~{num_edges(n)} edge labels)"
        )
    return n


def num_vertices(n: int) -> int:
    return 1 << n


def num_edges(n: int) -> int:
    return n << (n - 1)


def squeeze_bit(value: int, d: int) -> int:
    """Remove bit d from value: low bits keep positions, higher bits shift down one."""
    return (value & ((1 << d) - 1)) | ((value >> (d + 1)) << d)


def unsqueeze_bit(value: int, d: int) -> int:
    """Inverse of squeeze_bit: reopen a zero bit at position d."""
    return (value & ((1 << d) - 1)) | ((value >> d) << (d + 1))


def validate_edge(e: Edge, n: int) -> Edge:
    u, d = e
    if not 0 <= d < n:
        raise MalformedEdgeError(f"dimension index {d} out of range for n={n}")
    if not 0 <= u < (1 << n):
        raise MalformedEdgeError(f"vertex {u} out of range for n={n}")
    if u & (1 << d):
        raise MalformedEdgeError(f"vertex {u:#x} has bit {d} set; not a canonical endpoint")
    return e


def edge_id(e: Edge, n: int) -> int:
    """Dense id of a canonical edge (dimension-major layout)."""
    validate_edge(e, n)
    return e.d * (1 << (n - 1)) + squeeze_bit(e.u, e.d)


def edge_from_id(eid: int, n: int) -> Edge:
    """Inverse of edge_id."""
    if not 0 <= eid < num_edges(n):
        raise MalformedEdgeError(f"edge id {eid} out of range for n={n}")
    d, s = divmod(eid, 1 << (n - 1))
    return Edge(unsqueeze_bit(s, d), d)


def edge_endpoints(ids: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized edge_from_id: decode an id array to (u, v) endpoint arrays."""
    ids = np.asarray(ids, dtype=np.int64)
    half = np.int64(1) << (n - 1)
    d = ids >> (n - 1)
    s = ids & (half - 1)
    low = (np.int64(1) << d) - 1
    u = (s & low) | ((s >> d) << (d + 1))
    v = u | (np.int64(1) << d)
    return u, v
