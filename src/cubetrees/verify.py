"""Independent structural checks for hypercube edge-set decompositions.

Everything here works from first principles on the label array, using only
the cube's own structure: dimension block d of the edge-id layout lists the
edges along d by their lower end with bit d squeezed out, so each edge set
becomes a (lower, upper) pair of uint32 vertex arrays, read block by block.
Connected components come from min-label hooking with pointer jumping over
those edges, whose round count does not grow with the depth of a tree.
One routine, _check_labels, reduces any edge set to three integers: its
edges, the vertices they touch and the components among those vertices.  A
set whose edges touch twice as many vertices is a matching, one component
per edge, so only the others are hooked.  It serves two callers only, label
0 at every n and forest_components.  Every reported property is an integer
identity on such counts, whether _check_labels or the tree searches below
give them.  Nothing is imported from the construction code, so a verified
decomposition is certified by a second, unrelated route.

No tree label is hooked.  The tree labels are searched from vertex 0
by walk.py's driver (_search_trees), the one broadcast uses.  A cube of at
most 2^12 vertices has all its trees searched at once as vertex sets, and
every tree's edges and the vertices they touch are counted.  A larger cube
(or a tree deeper than the set search's depth guard) gets a walk per group
of trees over masks from the labels' bit planes, and a marked search of
each tree a walk cuts (a cycle).  A tree the walk settles with all 2^n
vertices reached is a spanning tree, (2^n - 1, 2^n, connected), with
nothing to count.  Any other tree is connected exactly when its search
reaches all 2^n vertices, and only its edges and the vertices they touch
are counted.  Label 0 is checked in a task the driver runs ahead of the
tree searches, on the same threads: the even leftover, a matching, is only
counted, and the odd leftover, a forest, is hooked.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .hypercube import MalformedEdgeError, edge_endpoints, num_edges, num_vertices
from .walk import _BLOCK_VERTICES, _search_trees

if TYPE_CHECKING:  # annotation only; the checker never calls into construct
    from .construct import Decomposition


class MalformedDecompositionError(ValueError):
    """Structurally invalid decomposition (labels not uint8, wrong length or label out of range).

    Distinct from a failing check: a malformed input cannot be meaningfully
    verified at all.
    """


def _as_id_array(edge_ids: Iterable[int] | np.ndarray, n: int) -> np.ndarray:
    ids = np.asarray(edge_ids, dtype=np.int64).reshape(-1)
    total = num_edges(n)
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= total):
        raise MalformedEdgeError(f"edge ids must lie in [0, {total}) for n={n}")
    return ids


def _edge_ends(labels: np.ndarray, label: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) uint32 ends of every edge labelled label.

    Dimension block d of the edge-id layout lists the lower ends of the
    edges along d with bit d squeezed out, so a block's picked offsets
    become lower ends once a clear bit d is inserted, and upper ends once
    it is then set.  The upper ends are the concatenated lower ends ORed
    with each block's bit, repeated over its edges, made after the blocks
    are freed: at most two edge arrays are held at once.  Keeping each
    block's upper ends as well raised the peak RSS of verifying
    construct(21) by 4 MB.
    """
    half = 1 << (n - 1)
    lowers = []
    for d in range(n):
        s = np.flatnonzero(labels[d * half : (d + 1) * half] == label).astype(np.uint32)
        s += (s >> d) << d  # insert a clear bit d
        lowers.append(s)
    sizes = [s.size for s in lowers]
    lower = np.concatenate(lowers)
    del lowers
    upper = np.repeat(np.uint32(1) << np.arange(n, dtype=np.uint32), sizes)
    upper |= lower
    return lower, upper


def _first_round(lower: np.ndarray, upper: np.ndarray, vertices: int) -> np.ndarray:
    """Root array after the first hooking round over the edges (lower, upper).

    Every upper end hooks onto its smallest lower neighbour, which is the
    vertex with one bit cleared, so no pointer chain is longer than n.  The
    whole array is therefore jumped (root = root[root]) until it stops
    changing, at most ceil(log2 n) + 1 passes, and every vertex ends up
    pointing at the end of its chain.  Every index is a vertex id, so
    np.take's mode="clip" never clips; it only spares numpy the bounds check
    and the buffered copy.  np.take converts its index to intp, 8 bytes a
    vertex, so each pass jumps a block of _BLOCK_VERTICES at a time into one
    second array, and the two arrays swap after every pass.
    """
    root = np.arange(vertices, dtype=np.uint32)
    np.minimum.at(root, upper, lower)
    jumped = np.empty_like(root)
    while True:
        for start in range(0, vertices, _BLOCK_VERTICES):
            block = slice(start, start + _BLOCK_VERTICES)
            np.take(root, root[block], out=jumped[block], mode="clip")
        if np.array_equal(jumped, root):
            return root
        root, jumped = jumped, root


def _roots(lower: np.ndarray, upper: np.ndarray, vertices: int) -> np.ndarray:
    """A flag per vertex, set on the root of each component of the edges (lower, upper).

    Min-label hooking with pointer jumping, starting from _first_round.  In
    each later round every root hooks onto the smallest root it shares an
    edge with, and only the chains hooked in that round are jumped; edges
    inside one component are dropped.  A component that is a local minimum
    and gains nothing in one round has only smaller neighbours in the next,
    so every component with an edge left merges within two rounds: at most
    about 2 n rounds run, whatever the depth of the trees.  A vertex no
    edge touches is a component of its own.
    """
    root = _first_round(lower, upper, vertices)
    while True:
        a, b = np.take(root, lower, mode="clip"), np.take(root, upper, mode="clip")
        live = a != b
        a, b = a[live], b[live]
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        if not lower.size:
            break
        np.minimum.at(root, upper, lower)
        hooked = upper
        while hooked.size:
            up = np.take(root, hooked, mode="clip")
            upup = np.take(root, up, mode="clip")
            moving = upup != up
            hooked = hooked[moving]
            root[hooked] = upup[moving]
    return root == np.arange(vertices, dtype=np.uint32)


def _check_labels(labels: np.ndarray, label: int, n: int) -> tuple[int, int, int]:
    """(edges, touched vertices, components among those vertices) of label.

    Edges that touch twice as many vertices share no end: they form a
    matching, one component per edge, and are not hooked.  Any other label
    is hooked (_roots), and only the roots among its touched vertices are
    counted.  More than 2^(n-1) edges cannot be a matching, so such a label
    is hooked before its ends are marked: a mark array made first stays in
    the heap while the hooking runs, which raised the peak RSS of verifying
    construct(23) by 6 MB (medians of five fresh processes, 2-CPU VM).
    """
    vertices = num_vertices(n)
    lower, upper = _edge_ends(labels, label, n)
    edges = lower.size
    roots = _roots(lower, upper, vertices) if 2 * edges > vertices else None
    hit = np.zeros(vertices, dtype=bool)
    hit[lower] = hit[upper] = True
    touched = int(np.count_nonzero(hit))
    if touched == 2 * edges:
        return edges, touched, edges
    if roots is None:
        roots = _roots(lower, upper, vertices)
    return edges, touched, int(np.count_nonzero(roots & hit))


def is_matching(edge_ids: Iterable[int] | np.ndarray, n: int) -> bool:
    """True iff no two edges share an endpoint (the empty set qualifies)."""
    u, v = edge_endpoints(_as_id_array(edge_ids, n), n)
    ends = np.concatenate([u, v])
    return np.unique(ends).size == ends.size


def forest_components(edge_ids: Iterable[int] | np.ndarray, n: int) -> tuple[bool, int]:
    """(acyclic?, component count) of an edge set.

    Components are counted over the endpoints of the given edges only, so
    cube vertices touched by no edge do not contribute.  A repeated edge id
    counts as a cycle.
    """
    ids = _as_id_array(edge_ids, n)
    chosen = np.zeros(num_edges(n), dtype=np.uint8)
    chosen[ids] = 1
    _, touched, components = _check_labels(chosen, 1, n)
    return ids.size == touched - components, components


@dataclass(frozen=True)
class TreeCheck:
    label: int
    edge_count: int
    size_ok: bool
    connected: bool
    incident_to_all: bool

    @property
    def ok(self) -> bool:
        return self.size_ok and self.connected and self.incident_to_all


@dataclass(frozen=True)
class LeftoverCheck:
    size: int
    expected_size: int
    is_matching: bool | None  # populated for even decompositions
    is_forest: bool | None  # populated for odd decompositions
    components: int | None
    expected_components: int | None

    @property
    def ok(self) -> bool:
        if self.size != self.expected_size:
            return False
        if self.is_matching is not None:
            return self.is_matching
        return bool(self.is_forest) and self.components == self.expected_components


@dataclass(frozen=True)
class VerifyReport:
    n: int
    k: int
    kind: str
    partition_ok: bool
    trees: tuple[TreeCheck, ...]
    leftover: LeftoverCheck

    @property
    def overall(self) -> bool:
        return self.partition_ok and self.leftover.ok and all(t.ok for t in self.trees)

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["trees"] = [{**tree, "ok": t.ok} for tree, t in zip(doc["trees"], self.trees)]
        doc["leftover"]["ok"] = self.leftover.ok
        doc["overall"] = self.overall
        return doc

    def to_text(self) -> str:
        lines = [
            f"decomposition of Q_{self.n}: k={self.k} trees, kind={self.kind}",
            f"  partition of {num_edges(self.n)} edges: {_mark(self.partition_ok)}",
        ]
        for t in self.trees:
            lines.append(
                f"  tree {t.label}: {t.edge_count} edges, "
                f"connected={_mark(t.connected)}, "
                f"spans all vertices={_mark(t.incident_to_all)}: {_mark(t.ok)}"
            )
        lo = self.leftover
        if lo.is_matching is not None:
            shape = f"matching={_mark(lo.is_matching)}"
        else:
            shape = f"forest={_mark(bool(lo.is_forest))}, components={lo.components} (want {lo.expected_components})"
        lines.append(f"  leftover: {lo.size} edges (want {lo.expected_size}), {shape}: {_mark(lo.ok)}")
        lines.append(f"  overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def _mark(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def verify_decomposition(dec: "Decomposition") -> VerifyReport:
    """Check every claimed property of a decomposition from first principles.

    Only dec.n and dec.labels are read; k and the leftover's shape follow
    from n.  Raises MalformedDecompositionError for structurally invalid
    input; returns a report (possibly failing) otherwise.
    """
    n, k, labels = dec.n, dec.n // 2, dec.labels
    total = num_edges(n)
    if labels.dtype != np.uint8 or labels.shape != (total,):
        raise MalformedDecompositionError(f"label array is {labels.dtype} {labels.shape}, expected uint8 ({total},)")
    if labels.size and int(labels.max()) > k:
        raise MalformedDecompositionError(f"label {int(labels.max())} exceeds tree count k={k}")

    full = num_vertices(n) - 1
    leftover, *found = _search_trees(labels, n, 0, lambda: _check_labels(labels, 0, n))
    trees = []
    for label, (_, reach, touched) in enumerate(found, 1):
        # touched is None for a spanning tree, by the walk's certificate (walk._search_group)
        edges = full if touched is None else int(np.count_nonzero(labels == label))
        trees.append(TreeCheck(label, edges, edges == full, reach == full, touched in (None, full + 1)))
    edges, touched, components = leftover
    even = n % 2 == 0
    leftover = LeftoverCheck(
        size=edges,
        expected_size=k if even else (1 << (n - 1)) + k,
        is_matching=touched == 2 * edges if even else None,
        is_forest=None if even else edges == touched - components,
        components=None if even else components,
        # n = 1 has zero trees and its single edge as leftover: one component.
        expected_components=None if even else 1 if n == 1 else k,
    )
    # With one label per edge id, the labeling is a partition exactly when
    # the structural checks above hold; record the covering count anyway.
    partition_ok = edges + sum(tree.edge_count for tree in trees) == total

    return VerifyReport(
        n=n,
        k=k,
        kind="even" if even else "odd",
        partition_ok=partition_ok,
        trees=tuple(trees),
        leftover=leftover,
    )
