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

Labels are kept in a flat uint8 array in dense edge-id order, and both
steps are one routine, _extend, of pure block arithmetic on that array.
Copy c of the smaller cube (c = the new top coordinates read as a number:
Gray order puts copies 1..4 at c = 0, 1, 3, 2) shifts every dimension block
by c * 2^(m-1), so the first m output blocks are an (m, copies, 2^(m-1))
reshape of the copies' labels.  The cross matchings follow as consecutive
runs of 2^m edges: (1,2), (3,4), (1,4), (2,3) in the even step, the one
matching in the odd step.  So a step is a table: the number of copies, the
label the other copies' last tree takes, and per run its bulk label and the
label of the selected edge paired with the last leftover edge, if the run
selects any.  Each run is one block write plus one fancy-index write of its
selected edges, and the step runs in O(edges) with no per-edge Python work.
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


def _extend(sub_labels: np.ndarray, sub_k: int, copies: int, last: int, crossings: list) -> np.ndarray:
    """One step: labels of Q_{2*sub_k} -> labels of the cube made of copies
    copies joined by the cross matchings listed in crossings.

    Output block d < m holds copy c's block d at offset c * 2^(m-1), so those
    blocks form an (m, copies, 2^(m-1)) view.  The first copy keeps
    sub_labels; in every other copy the leftover feeds tree sub_k and the
    last tree becomes last.  The cross matchings follow as consecutive runs
    of 2^m edges, each edge at the local vertex of its lower end.  A run's
    (bulk, final) puts every edge in tree bulk except the selected ones:
    the edge paired with leftover edge i joins tree i, and the one paired
    with the last leftover edge joins final; final None selects no edges.
    """
    m = 2 * sub_k
    half, run = 1 << (m - 1), 1 << m
    start = m * copies * half
    out = np.empty(start + len(crossings) * run, dtype=np.uint8)

    moved = np.arange(sub_k + 1, dtype=np.uint8)
    moved[LEFTOVER] = sub_k
    moved[sub_k] = last
    blocks = out[:start].reshape(m, copies, half)
    blocks[:, 0] = sub_labels.reshape(m, half)
    blocks[:, 1:] = moved[sub_labels].reshape(m, 1, half)

    chosen = _matching_starts(sub_k)
    selected = np.arange(1, sub_k + 1, dtype=np.uint8)
    for cross, (bulk, final) in zip(out[start:].reshape(-1, run), crossings):
        cross[:] = bulk
        if final is not None:
            selected[-1] = final
            cross[chosen] = selected
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
    for j in range(1, k):
        # Cross matchings (1,2), (3,4), (1,4), (2,3) of the Gray-ordered copies.
        labels = _extend(labels, j, 4, j + 1, [(j, j + 1), (j, j + 1), (j + 1, None), (j, LEFTOVER)])
    if n % 2:
        labels = _extend(labels, k, 2, LEFTOVER, [(k, LEFTOVER)])
    return Decomposition(n=n, labels=labels)
