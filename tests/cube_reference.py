"""Scalar model of hypercube edges, the reference for the vectorized decode.

An edge is stored canonically as (u, d): the endpoint whose bit d is 0, plus
the dimension d along which the edge runs.  Its dense id is

    edge_id = d * 2^(n-1) + squeeze_bit(u, d)

where squeeze_bit removes bit d from u and closes the gap.  Tests hold
cubetrees.hypercube.edge_endpoints and the edge-id order of label arrays
and files to this model.
"""

from __future__ import annotations

from typing import NamedTuple

from cubetrees.hypercube import MalformedEdgeError, num_edges


class Edge(NamedTuple):
    """Canonical hypercube edge: u has bit d clear, the other endpoint is u | 1<<d."""

    u: int
    d: int

    @property
    def v(self) -> int:
        return self.u | (1 << self.d)

    def endpoints(self) -> tuple[int, int]:
        return self.u, self.v


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
