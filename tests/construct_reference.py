"""Object-level oracle for one extension step of the construction.

The library builds each step by block arithmetic on the label array.  This
module describes the same step edge set by edge set: each smaller cube is
embedded as one copy of the larger cube with its trees and leftover edges in
global coordinates, and adjacent copies are joined by explicit cross
matchings.  Tests assemble a step from these objects and require the
library's labels to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cubetrees.construct import Decomposition
from cubetrees.hypercube import edge_endpoints
from cube_reference import Edge, edge_id

# Copy index -> top-coordinate bits, Gray order.  Consecutive entries (and
# the first/last pair) differ in exactly one bit, so copy pairs (1,2),
# (2,3), (3,4), (1,4) are joined by perfect matchings.
EVEN_COPY_BITS = (0, 1, 3, 2)
ODD_COPY_BITS = (0, 1)


def embed(v: int, copy_bits: int, at: int) -> int:
    """Place v inside the subcube copy selected by copy_bits at bit positions at, at+1, ...

    Pre-validated: v must satisfy v < 2^at.  Copy 0 is the identity embedding;
    the images of distinct copy_bits values partition the larger vertex range.
    """
    return v | (copy_bits << at)


def leftover_edge_ids(dec: Decomposition) -> np.ndarray:
    """Ids of dec's leftover edges (label 0), in increasing order."""
    return np.flatnonzero(dec.labels == 0)


def _leftover_lower_endpoints(sub: Decomposition) -> np.ndarray:
    """Numerically smaller endpoints of sub's leftover edges, in edge-id order."""
    u, _ = edge_endpoints(leftover_edge_ids(sub), sub.n)
    return u


@dataclass(frozen=True)
class CopyDecomposition:
    """A smaller cube's decomposition embedded as one copy of a larger cube.

    trees[j-1] holds the global edge ids of the copy's tree j; independents
    are the copy's leftover edges in global coordinates, ordered by local
    edge id (the order that pairs them with cross-matching selections).
    """

    copy_bits: int
    trees: tuple[np.ndarray, ...]
    independents: tuple[Edge, ...]


def embed_copy(sub: Decomposition, copy_bits: int, n_out: int) -> CopyDecomposition:
    """Embed sub as the copy selected by copy_bits inside the n_out-cube."""
    m = sub.n
    half = 1 << (m - 1)
    out_half = 1 << (n_out - 1)

    def to_global(local_ids: np.ndarray) -> np.ndarray:
        d, s = np.divmod(local_ids, half)
        return d * out_half + copy_bits * half + s

    trees = tuple(to_global(sub.tree_edge_ids(j)) for j in range(1, sub.k + 1))
    ids = leftover_edge_ids(sub)
    u, _ = edge_endpoints(ids, m)
    d = (ids >> (m - 1)).tolist()
    independents = tuple(
        Edge(embed(int(ul), copy_bits, m), int(dl)) for ul, dl in zip(u.tolist(), d)
    )
    return CopyDecomposition(copy_bits=copy_bits, trees=trees, independents=independents)


@dataclass(frozen=True)
class CrossMatching:
    """Perfect matching between two adjacent copies, plus the selected edges.

    all_ids are the 2^m cross edges; chosen_ids[j-1] is the selected edge
    for the copies' j-th leftover edge (the cross edge at its numerically
    smaller endpoint).
    """

    dim: int
    all_ids: np.ndarray
    chosen_ids: np.ndarray


def cross_matching(
    sub: Decomposition, bits_a: int, bits_b: int, n_out: int
) -> CrossMatching:
    """Cross matching between the copies at bits_a and bits_b of the n_out-cube."""
    m = sub.n
    diff = bits_a ^ bits_b
    if diff.bit_count() != 1:
        raise ValueError(f"copies {bits_a:#b} and {bits_b:#b} are not adjacent")
    dim = m + diff.bit_length() - 1
    low_bits = bits_a if not bits_a & diff else bits_b  # side with the edge bit clear
    all_ids = np.fromiter(
        (edge_id(Edge(embed(u, low_bits, m), dim), n_out) for u in range(1 << m)),
        dtype=np.int64,
        count=1 << m,
    )
    chosen = _leftover_lower_endpoints(sub)
    chosen_ids = np.fromiter(
        (edge_id(Edge(embed(int(u), low_bits, m), dim), n_out) for u in chosen),
        dtype=np.int64,
        count=chosen.size,
    )
    return CrossMatching(dim=dim, all_ids=all_ids, chosen_ids=chosen_ids)


class EvenStepSizes(NamedTuple):
    """Edge counts of the three tree families produced by one even step."""

    joined_trees: int  # four copy trees plus three selected cross edges
    remainder_tree: int  # one copy tree, three copy matchings, three cross remainders
    final_tree: int  # three copy trees, one full cross matching, two selected edges


def even_extension_tree_sizes(sub_k: int) -> EvenStepSizes:
    """Closed-form tree sizes for the step Q_{2*sub_k} -> Q_{2*sub_k + 2}.

    All three must equal 2^(2*sub_k + 2) - 1, the spanning-tree size of the
    extended cube.
    """
    q = 1 << (2 * sub_k)  # vertices per copy
    return EvenStepSizes(
        joined_trees=4 * (q - 1) + 3,
        remainder_tree=(q - 1) + 3 * (q - sub_k) + 3 * sub_k,
        final_tree=3 * (q - 1) + q + 2,
    )
