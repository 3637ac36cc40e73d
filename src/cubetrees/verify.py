"""Independent structural checks for hypercube edge-set decompositions.

Everything here works from first principles on the label array, using only
the cube's own structure: dimension block d of the edge-id layout lists the
edges along d by their lower end with bit d squeezed out, so each edge set
becomes a (lower, upper) pair of uint32 vertex arrays, read block by block.
Connected components come from min-label hooking with pointer jumping over
those edges, whose round count does not grow with the depth of a tree.  One
routine, _check_labels, reduces every label's edge set, the leftover's
included, to three integers: its edges, the vertices they touch and the
components among those vertices.  Every reported property is an integer
identity on them.  An even leftover checked alone is only counted: its
report is a matching test, which needs no components.  Nothing is imported
from the construction code, so a verified decomposition is certified by a
second, unrelated route.

From _WALK_MIN_DIMENSION up a tree label is first walked from vertex 0
(walk.py) over a mask from the labels' bit planes, which the threads below
build once per call first.  A walk that reaches all 2^n vertices certifies
a spanning tree, (2^n - 1, 2^n, 1), without hooking; every other tree
label is hooked, so every failing tree report still comes from _check_labels.

Labels are checked in groups of consecutive labels (_groups), each label
with a vertex space of its own, so one pass over small arrays serves a
whole group; from 2^15 vertices up a group is one label.  The groups are
independent of each other.  On a cube of at least 2^16 vertices with two or
more usable CPUs and two or more groups, a helper thread checks the first
group and every second one after it while the calling thread checks the
others; afterwards the freed heap is handed back to the OS (glibc's
malloc_trim).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .hypercube import MalformedEdgeError, bit_planes, edge_endpoints, num_edges, num_vertices, plane_masks
from .walk import _search

if TYPE_CHECKING:  # annotation only; the checker never calls into construct
    from .construct import Decomposition


class MalformedDecompositionError(ValueError):
    """Structurally invalid decomposition (wrong length or label out of range).

    Distinct from a failing check: a malformed input cannot be meaningfully
    verified at all.
    """


def _as_id_array(edge_ids: Iterable[int] | np.ndarray, n: int) -> np.ndarray:
    ids = np.asarray(edge_ids, dtype=np.int64).reshape(-1)
    total = num_edges(n)
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= total):
        raise MalformedEdgeError(f"edge ids must lie in [0, {total}) for n={n}")
    return ids


def _id_labels(ids: np.ndarray, n: int) -> np.ndarray:
    """A label array that gives the edges in ids label 1 and every other edge 0."""
    chosen = np.zeros(num_edges(n), dtype=np.uint8)
    chosen[ids] = 1
    return chosen


def _edge_ends(labels: np.ndarray, first: int, count: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) uint32 ends of every edge labelled first .. first + count - 1.

    Dimension block d of the edge-id layout lists the lower ends of the
    edges along d with bit d squeezed out, so a block's picked offsets
    become lower ends once a clear bit d is inserted, and upper ends once
    it is then set.  Label first + t has a vertex space of its own: its
    vertex v becomes t << n | v.
    """
    half = 1 << (n - 1)
    lowers, bounds = [], [0]
    for d in range(n):
        block = labels[d * half : (d + 1) * half]
        if count == 1:
            s = np.flatnonzero(block == first).astype(np.uint32)
        else:  # uint8 arithmetic wraps a label below first past count
            space = block - np.uint8(first)
            s = np.flatnonzero(space < count).astype(np.uint32)
            space = space[s].astype(np.uint32) << n
        s += (s >> d) << d  # insert a clear bit d
        if count > 1:
            s |= space
        lowers.append(s)
        bounds.append(bounds[-1] + s.size)
    lower = np.concatenate(lowers)
    del lowers
    upper = lower.copy()
    for d in range(n):
        upper[bounds[d] : bounds[d + 1]] |= np.uint32(1 << d)
    return lower, upper


def _first_round(lower: np.ndarray, upper: np.ndarray, vertices: int) -> np.ndarray:
    """Root array after the first hooking round over the edges (lower, upper).

    Every upper end hooks onto its smallest lower neighbour, which is the
    vertex with one bit cleared, so no pointer chain is longer than n.  The
    whole array is therefore jumped (root = root[root]) until it stops
    changing, at most ceil(log2 n) + 1 passes, and every vertex ends up
    pointing at the end of its chain.  Every index is a vertex id, so
    np.take's mode="clip" never clips; it only spares numpy the bounds check
    and the buffered copy.
    """
    root = np.arange(vertices, dtype=np.uint32)
    np.minimum.at(root, upper, lower)
    while not np.array_equal(jumped := np.take(root, root, mode="clip"), root):
        root = jumped
    return root


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


def _per_space(flags: np.ndarray, count: int) -> np.ndarray:
    """The number of set flags in each of count equal vertex spaces."""
    return np.array([np.count_nonzero(space) for space in flags.reshape(count, -1)])


def _check_labels(labels: np.ndarray, first: int, count: int, n: int) -> list[tuple[int, int, int]]:
    """(edges, touched vertices, components among those vertices) of each
    label first .. first + count - 1.

    Each untouched vertex is a component of its own, so it is taken off the
    component count of all 2^n vertices.  One component over all of them
    (at least two, as n >= 1) leaves no vertex untouched, so only the edge
    ends of a split label set are marked to count the touched vertices.
    """
    vertices = num_vertices(n)
    lower, upper = _edge_ends(labels, first, count, n)
    components = _per_space(_roots(lower, upper, count << n), count)
    if count == 1:
        edges = [lower.size]
    else:  # np.bincount(lower >> n) would copy the ids to intp first
        edges = [np.count_nonzero(labels == j) for j in range(first, first + count)]
    touched = np.full(count, vertices)
    split = components > 1
    if split.any():
        if not split.all():  # a group of labels, only some of them split
            keep = np.isin(lower >> n, np.flatnonzero(split))
            lower, upper = lower[keep], upper[keep]
        hit = np.zeros(count << n, dtype=bool)
        hit[lower] = True
        hit[upper] = True
        touched[split] = _per_space(hit, count)[split]
    return [(int(e), int(t), int(c - vertices + t)) for e, t, c in zip(edges, touched, components)]


def is_matching(edge_ids: Iterable[int] | np.ndarray, n: int) -> bool:
    """True iff no two edges share an endpoint (the empty set qualifies)."""
    ids = _as_id_array(edge_ids, n)
    if ids.size == 0:
        return True
    u, v = edge_endpoints(ids, n)
    ends = np.concatenate([u, v])
    return np.unique(ends).size == ends.size


def forest_components(edge_ids: Iterable[int] | np.ndarray, n: int) -> tuple[bool, int]:
    """(acyclic?, component count) of an edge set.

    Components are counted over the endpoints of the given edges only, so
    cube vertices touched by no edge do not contribute.  A repeated edge id
    counts as a cycle.
    """
    ids = _as_id_array(edge_ids, n)
    [(_, touched, components)] = _check_labels(_id_labels(ids, n), 1, 1, n)
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


# Cubes below this many vertices were measured no faster on two threads:
# verify(construct(n)) one thread against two, median of 30 interleaved
# calls (2-CPU shared VM), n = 13 took 3.0/4.0 ms, n = 14 5.5/6.7 ms, n = 15
# 10.5/11.3 ms, n = 16 25.7/19.1 ms and n = 17 51/35 ms.
_THREAD_MIN_VERTICES = 1 << 16

# Labels are checked in groups whose vertex spaces hold at most this many
# vertices together (one label at least): all k + 1 labels up to n = 12,
# four at n = 13, two at n = 14, one from n = 15 up.  Measured as the median
# of verify on construct(n) plus verify on a one-label mutation of it, 60
# interleaved runs of every group size on one thread (2-CPU shared VM): n = 12
# with 1/2/4/7 labels took 4.0/3.6/2.8/2.7 ms, n = 13 with 1/2/4/7 took
# 5.9/5.8/4.8/4.9 ms, n = 14 with 1/2/4/8 took 9.5/9.5/8.8/9.9 ms and n = 15
# with 1/2/4/8 took 16.4/18.0/18.1/22.3 ms.
_GROUP_VERTICES = 1 << 15


def _groups(n: int) -> list[tuple[int, int]]:
    """(first label, label count) of each group of labels 0..k, in label order."""
    k = n // 2
    size = max(1, min(k + 1, _GROUP_VERTICES >> n))
    return [(first, min(size, k + 1 - first)) for first in range(0, k + 1, size)]


# Tree labels are walked before they are hooked from this dimension up.
# Measured as the median of 15 interleaved calls of verify on construct(n)
# and on it with one edge of tree 1 moved to tree 2, hooking every label
# against walking first over plane masks (two threads, 2-CPU shared VM):
# n = 17 took 35/35 against 41/46 ms, n = 18 70-72/72-74 against 63-66/79-85
# ms (the walk loses on the moved edge), n = 19 135/139 against 110/142 ms.
_WALK_MIN_DIMENSION = 19


def _check_group(labels: np.ndarray, first: int, count: int, n: int, planes) -> list[tuple]:
    """_check_labels, except that two lone labels are not hooked: the even
    leftover, a matching iff its edges touch twice as many vertices, is only
    counted (no components), and given the labels' bit planes (or None), a
    tree label is not hooked once its walk certifies it a spanning tree."""
    if count == 1 and not first and n % 2 == 0:
        lower, upper = _edge_ends(labels, 0, 1, n)
        return [(lower.size, np.unique(np.concatenate([lower, upper])).size, None)]
    if count == 1 and first and planes is not None:
        found = _search(plane_masks(planes, [first], n).reshape(-1), n, 0)
        if found is not None and not found[1]:
            return [(num_vertices(n) - 1, num_vertices(n), 1)]
    return _check_labels(labels, first, count, n)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not provided on every platform
        return os.cpu_count() or 1


def _on_two_threads(tasks: list) -> list:
    """Every task's result, in task order.  The tasks are independent and
    numpy releases the GIL inside them, so a helper thread runs the first
    task and every second one after it while this thread runs the others.
    An exception in the helper is raised again here by result()."""
    from concurrent.futures import ThreadPoolExecutor

    results = [None] * len(tasks)
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="cubetrees-verify") as pool:
        evens = pool.submit(lambda: [task() for task in tasks[0::2]])
        results[1::2] = [task() for task in tasks[1::2]]
        results[0::2] = evens.result()
    _trim_heap()  # every task is done, so the helper's arena is all free
    return results


def _trim_heap() -> None:
    """Return freed heap pages to the OS with glibc's malloc_trim, where it exists.

    The helper thread's malloc arena otherwise keeps the tens of MB its
    temporaries used, and later allocations land on top of them.
    """
    import ctypes

    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    malloc_trim.argtypes = [ctypes.c_size_t]
    malloc_trim.restype = ctypes.c_int
    malloc_trim(0)


def verify_decomposition(dec: "Decomposition") -> VerifyReport:
    """Check every claimed property of a decomposition from first principles.

    Only dec.n and dec.labels are read; k and the leftover's shape follow
    from n.  Raises MalformedDecompositionError for structurally invalid
    input; returns a report (possibly failing) otherwise.
    """
    n, k, labels = dec.n, dec.n // 2, dec.labels
    total = num_edges(n)
    if labels.shape != (total,):
        raise MalformedDecompositionError(
            f"label array has length {labels.shape}, expected ({total},)"
        )
    if labels.size and int(labels.max()) > k:
        raise MalformedDecompositionError(
            f"label {int(labels.max())} exceeds tree count k={k}"
        )

    vertices, groups, planes = num_vertices(n), _groups(n), None
    threads = len(groups) >= 2 and vertices >= _THREAD_MIN_VERTICES and _usable_cpus() >= 2
    run = _on_two_threads if threads else lambda tasks: [task() for task in tasks]
    if n >= _WALK_MIN_DIMENSION:  # every label is below 2^k.bit_length()
        planes = np.empty((k.bit_length(), vertices), np.min_scalar_type(vertices - 1))
        run([partial(bit_planes, labels, n, planes, slice(b, None, 2)) for b in (0, 1)])
    by_group = run([partial(_check_group, labels, *group, n, planes) for group in groups])
    checks = [check for group in by_group for check in group]

    trees = tuple(
        TreeCheck(
            label=j,
            edge_count=edges,
            size_ok=edges == vertices - 1,
            connected=touched == vertices and components == 1,
            incident_to_all=touched == vertices,
        )
        for j, (edges, touched, components) in enumerate(checks[1:], 1)
    )
    edges, touched, components = checks[0]
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
    partition_ok = sum(check[0] for check in checks) == total

    return VerifyReport(
        n=n,
        k=k,
        kind="even" if even else "odd",
        partition_ok=partition_ok,
        trees=trees,
        leftover=leftover,
    )
