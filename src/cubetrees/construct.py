"""Explicit maximum spanning-tree decompositions of hypercubes.

Every edge of the n-cube is assigned a label in {0, 1, ..., k} with
k = floor(n/2): labels 1..k name k pairwise edge-disjoint spanning trees,
and label 0 marks the leftover edges.  For even n the leftover is a
matching of size k; for odd n it is a forest with exactly k connected
components and 2^(n-1) + k edges.

The even construction is recursive.  Q_{2k} splits into four copies of
Q_{2k-2} indexed by the two new top coordinates in Gray order
(00, 01, 11, 10), so consecutive copies sit at Hamming distance 1 and are
joined by perfect cross matchings.  Given the decomposition of the smaller
cube with trees T_1..T_j (j = k-1) and leftover matching e_1..e_j, the step
wires the copies together:

  * trees 1..j-1: the four copies of T_i joined by three selected cross
    edges, one per consecutive copy pair;
  * tree j: copy 1's last tree, plus the leftover matchings of copies
    2..4, plus all unselected cross edges of the three consecutive pairs;
  * tree j+1: the last trees of copies 2..4, the full cross matching
    between copies 1 and 4, and two selected cross edges;
  * new leftover: copy 1's leftover matching plus the one remaining
    selected cross edge between copies 2 and 3.

The leftover matching of Q_{2k} is explicit: e_i (i = 1..k, in edge-id
order) runs along dimension 2i - 1 from v_i = (4^i - 4)/3, the vertex with
bits 2, 4, ..., 2i - 2 set.  The selected cross edge for e_i between
adjacent copies is the one at v_i; this fixed rule (plus the fixed Gray
copy order and base case) makes the output byte-identical across runs.

The odd construction is a single step on top of the even one: Q_{2k+1} is
two copies of Q_{2k} joined by a perfect matching.  Trees 1..k-1 pair up
across the copies with one selected cross edge each; tree k threads copy
1's last tree through the unselected cross edges into copy 2's leftover
matching; the leftover collects copy 1's matching, one selected cross
edge, and copy 2's last tree, which form a forest with k components.

Labels are kept in a flat uint8 array in dense edge-id order, and each
extension step is pure block arithmetic on that array.  Copy c of the
smaller cube (c = the new top coordinates read as a number: Gray order
puts copies 1..4 at c = 0, 1, 3, 2) shifts every dimension block by
c * 2^(m-1), so the first m output blocks are an (m, copies, 2^(m-1))
reshape of the copies' labels.  The cross matchings are whole blocks plus
one fancy-index write of the selected edges per matching, and the step runs
in O(edges) with no per-edge Python work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypercube import check_dimension, check_integer, num_edges

EVEN = "even"
ODD = "odd"

# Label 0 marks leftover edges; labels 1..k are the spanning trees.
LEFTOVER = 0


@dataclass(frozen=True)
class Decomposition:
    """Complete edge labeling of the n-cube.

    labels[edge_id] is 0 for leftover edges and j in 1..k for tree j.
    The dimension fixes the rest of the shape: k = floor(n/2) trees, and
    the leftover is a matching for even n (kind "even") and a forest for
    odd n (kind "odd").  The array is uint8 (k <= 12 under the dimension
    cap) and must be treated as immutable once constructed.
    """

    n: int
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_integer("dimension", self.n, 1))
        labels, edges = self.labels, num_edges(self.n)
        shaped = isinstance(labels, np.ndarray) and labels.shape == (edges,)
        if not shaped or labels.dtype != np.uint8:
            raise ValueError(f"labels must be a uint8 array of length {edges}")

    @property
    def k(self) -> int:
        return self.n // 2

    @property
    def kind(self) -> str:
        return ODD if self.n % 2 else EVEN

    @property
    def num_edges(self) -> int:
        return num_edges(self.n)

    def tree_edge_ids(self, j: int) -> np.ndarray:
        if not 1 <= j <= self.k:
            raise ValueError(f"tree index {j} out of range 1..{self.k}")
        return np.flatnonzero(self.labels == j)


def base_q2() -> Decomposition:
    """Decomposition of the 2-cube: one spanning tree plus a matching of size 1.

    The tree is the 4-cycle minus one edge: {(00,01), (01,11), (10,11)};
    the leftover is the dimension-1 edge at vertex 00.
    """
    # Edge ids for n=2: 0 = (00,01), 1 = (10,11), 2 = (00,10), 3 = (01,11).
    return Decomposition(n=2, labels=np.array([1, 1, 0, 1], dtype=np.uint8))


def _matching_starts(sub_k: int) -> np.ndarray:
    """Lower ends v_i = (4^i - 4)/3 of the leftover matching of Q_{2*sub_k}.

    Edge-id order pairs them with the cross-matching selections.
    """
    return (4 ** np.arange(1, sub_k + 1, dtype=np.int64) - 4) // 3


def _place_copies(
    out: np.ndarray, sub_labels: np.ndarray, m: int, copies: int, moved: np.ndarray
) -> None:
    """Write the copies' labels into dimension blocks 0..m-1 of out.

    Output block d holds copy c's block d at offset c * 2^(m-1), so those
    blocks form an (m, copies, 2^(m-1)) view.  The copy at offset 0 keeps
    sub_labels; every other copy relabels them through moved.
    """
    half = 1 << (m - 1)
    blocks = out[: m * copies * half].reshape(m, copies, half)
    blocks[:, 0] = sub_labels.reshape(m, half)
    blocks[:, 1:] = moved[sub_labels].reshape(m, 1, half)


def _extend_even(sub_labels: np.ndarray, sub_k: int) -> np.ndarray:
    """One even step: labels of Q_{2*sub_k} -> labels of Q_{2*sub_k + 2}."""
    m = 2 * sub_k
    full = 1 << (m + 1)  # output dimension-block size
    out = np.empty((m + 2) * full, dtype=np.uint8)

    # Copy 1 keeps every label; in copies 2..4 the leftover feeds the new
    # tree sub_k and the last tree becomes the new final tree sub_k + 1.
    moved = np.arange(sub_k + 2, dtype=np.uint8)
    moved[LEFTOVER] = sub_k
    moved[sub_k] = sub_k + 1
    _place_copies(out, sub_labels, m, 4, moved)

    # Cross matchings.  Dimension m holds the copy pairs (1,2) and (3,4),
    # dimension m+1 holds (1,4) and (2,3); within each half-block the offset
    # is the local vertex of the lower endpoint.
    q = 1 << m
    m12 = m * full
    m34 = m * full + q
    m14 = (m + 1) * full
    m23 = (m + 1) * full + q
    out[m12:m34] = sub_k  # bulk of (1,2) joins the new tree sub_k
    out[m34 : m34 + q] = sub_k
    out[m14:m23] = sub_k + 1  # the (1,4) matching belongs entirely to the final tree
    out[m23 : m23 + q] = sub_k

    # The selected edge paired with leftover edge j joins tree j in every
    # pair; the last one goes to the final tree in (1,2) and (3,4) and
    # stays leftover in (2,3).
    chosen = _matching_starts(sub_k)
    selected = np.arange(1, sub_k + 1, dtype=np.uint8)
    selected[-1] = sub_k + 1
    out[m12 + chosen] = selected
    out[m34 + chosen] = selected
    selected[-1] = LEFTOVER
    out[m23 + chosen] = selected
    return out


def _extend_odd(sub_labels: np.ndarray, sub_k: int) -> np.ndarray:
    """Odd step: labels of Q_{2*sub_k} -> labels of Q_{2*sub_k + 1}."""
    m = 2 * sub_k
    full = 1 << m
    out = np.empty((m + 1) * full, dtype=np.uint8)

    # Copy 2 donates its leftover to tree sub_k and its last tree to the
    # new leftover forest; copy 1 keeps every label.
    moved = np.arange(sub_k + 1, dtype=np.uint8)
    moved[LEFTOVER] = sub_k
    moved[sub_k] = LEFTOVER
    _place_copies(out, sub_labels, m, 2, moved)

    cross = m * full
    out[cross : cross + full] = sub_k
    chosen = _matching_starts(sub_k)
    selected = np.arange(1, sub_k + 1, dtype=np.uint8)
    selected[-1] = LEFTOVER
    out[cross + chosen] = selected
    return out


def construct(n: int) -> Decomposition:
    """Decomposition of Q_n with floor(n/2) trees.

    The even steps build Q_{2k} up from Q_2; odd n adds the one odd step.
    n = 1 is degenerate: floor(1/2) = 0 trees, so the single edge is
    emitted as leftover (a forest with one component).
    """
    n = check_dimension(n)
    k = n // 2
    if k == 0:
        return Decomposition(n=1, labels=np.zeros(1, dtype=np.uint8))
    labels = base_q2().labels
    for sub_k in range(1, k):
        labels = _extend_even(labels, sub_k)
    if n % 2:
        labels = _extend_odd(labels, k)
    return Decomposition(n=n, labels=labels)
