"""The tree searches verify and broadcast share: one driver, two searches.

One driver (_search_trees) serves both callers, verify from vertex 0 and
broadcast from any root.  It runs the caller's head tasks and returns
(depth, reach, touched) of each tree label 1..n // 2.

A cube of at most _DENSE_MAX_VERTICES vertices searches all its trees at
once, breadth-first, over Python-int vertex sets (_search_sets): bit
t * 2^n + x stands for vertex x of tree t + 1, each dimension has the set of
the lower and of the upper ends of its tree edges, and one level is a few
shifts and ANDs of the frontier per dimension.  So a level costs one pass
over k * 2^n bits however narrow it is, and the search gives up after 4n
levels (the depth guard), deeper than any tree of the construction reaches
from any root up to 2^12 vertices; a deeper tree, such as a Hamiltonian
path, falls back to the walk below.  This path builds no planes or masks
and starts no thread.

A larger cube is searched by level steps over per-vertex edge masks
(hypercube.plane_masks).  Every such search shares one level step (_level).
A frontier entry is a mask index and the mask bit it was reached by; each
of its other mask bits gives one entry of the next level.  A narrow level
is a list of Python ints, the came-by bit shifted above the index, for an
interpreter loop, so a deep, thin tree (a Hamiltonian path has 2^n - 1
levels of one vertex) does not pay numpy's fixed cost per call at every
level.  A wide level is a pair of arrays, uint32 indices and came-by bits
in the masks' dtype, for a few dozen whole-array calls.  A search covers a
group of trees stacked in one flat array, tree t's masks at offset t * 2^n,
so an entry of tree t has index t << n | vertex (below 2^24 under the
dimension cap) and one step expands the group.

Without a visit array the search (_search) is a walk: in a tree every step
leads to a new vertex, and a tree's depth is the last level holding one of
its entries.  A walk into a cycle would never end, so a tree whose entries
pass 2^n - 1 is cut (a cycle) while the other trees walk on.  A level of
more than 2^n - 1 entries per tree is dropped unfinished; the trees it would
carry past 2^n - 1 entries are cut, and the level is stepped again without
them.  So only a tree whose component holds a cycle is cut, and a label's
walk from vertex 0 settles having reached all 2^n vertices exactly when the
label is a spanning tree.  With a visit array the search is breadth-first:
each level passes a first-visit filter (_first_visits) that marks the
indices it keeps.

On the mask path the driver fills the labels' bit planes once and searches
the tree labels in groups (_stacks), one task per group: the group's masks,
one walk of the group, and a marked search of the own mask row of each tree
the walk cuts.  The planes are filled one task per block of
_BLOCK_VERTICES vertices.  On a cube of at least _THREAD_MIN_VERTICES
vertices with two or more groups and two usable CPUs, a helper thread runs
the first fill task and every second one after it while the calling thread
fills the other blocks, and then the head and search tasks are shared the
same way (_on_two_threads); afterwards the freed heap is handed back to the
OS (glibc's malloc_trim).
"""

from __future__ import annotations

import math
import os
from functools import partial

import numpy as np

from .hypercube import bit_planes, num_vertices, plane_masks

# A level with at least this many entries is expanded by numpy, a narrower
# one by the interpreter loop.  Measured on slices of the widest level of
# trees 1, 4 and 8 of construct(16), median of 500-2000 calls each: 8 entries
# took 2-4 us in the loop and 8-28 us in numpy, 64 took 5-18 us and 6-30 us,
# 128 took 17-40 us and 15-36 us, 256 took 33-85 us and 22-64 us.  The two
# cross between 64 and 128 entries; a tree has only a few levels in that band.
_WIDE_LEVEL = 64

# The masks of the trees walked together are stacked up to this many bytes
# (one tree's row at least, _stacks).  So all k trees are walked together up
# to n = 15, four at n = 16 (uint16 masks), one from n = 17 up (uint32),
# measured on a 2-CPU shared VM: median of tree_depths(construct(n), root)
# over 40-200 seeded roots, every group size timed on each root in turn,
# n = 14 with 1/2/4/7 trees took 8.0/7.0/5.3/4.3 ms, n = 15 with 2/4/7 took
# 11.2/8.7/8.1 ms, n = 16 with 1/2/3/4/8 took 21.8/20.2/19.5/17.4/17.7 ms,
# n = 17 with 1/2 took 30.7/31.5 ms and n = 18 with 1/2 took 63/74 ms.  1 MB
# of masks was no faster at n = 16 and 17, and slower at n = 18.
_STACK_BYTES = 1 << 19

# Vertices per plane-fill task (hypercube.bit_planes).  Small blocks lose on
# two threads: their many short numpy calls pass the GIL back and forth.
# Filling construct(n)'s four planes, one thread / two, medians of 7
# interleaved runs (2-CPU shared VM): n = 20 with blocks of 2^13 took
# 55/83 ms, 2^15 37/35 ms, 2^16 36/27 ms, 2^17 37/25 ms, 2^18 42/27 ms;
# n = 22 175/311, 112/128, 109/89, 120/83 and 155/94 ms.  One plane per
# task over the whole cube took 79/42 ms at n = 20 and 296/190 ms at n = 22.
_BLOCK_VERTICES = 1 << 17

# Cubes below this many vertices are searched on one thread.  One thread
# against two with the blocked plane fill, medians of 15-25 interleaved calls
# per run (2-CPU shared VM), on construct(n) / with one tree-1 edge moved to
# tree 2.  verify: n = 16 13.2/14.8 and 17.4/17.1 ms, n = 17 32.4/31.8 and
# 39.0/34.1 ms, n = 18 in three runs 41.5-50.1/49.1-49.9 and
# 51.6-60.6/53.7-61.6 ms (a wash), n = 19 121/74 and 147/88 ms.  tree_depths
# from root 12345: n = 16 11.0/14.5 and 15.0/16.5 ms, n = 17 28.4/29.9 and
# 31.1/33.0 ms, n = 18 37.9-50.0/49.1-52.8 and 44.6-59.8/55.2-55.5 ms (a
# wash), n = 19 97/69 and 122/86 ms.
_THREAD_MIN_VERTICES = 1 << 18

# Cubes of at most this many vertices search all their trees at once as
# Python-int vertex sets (_search_sets), with no planes, masks or walk.  Walk
# against sets, in-process medians of 21 calls (best of two alternating
# runs, 2-CPU shared VM), on construct(n) / with one label changed, verify
# and tree_depths from root 2^n // 3: n = 8 verify 0.95/0.35 and 1.18/0.20
# ms, depths 0.74/0.10 and 1.10/0.09 ms; n = 10 verify 1.12/0.79 and
# 2.04/0.80, depths 1.53/0.45 and 2.45/0.45; n = 12 verify 2.83/2.85 and
# 4.97/2.82, depths 2.55/1.28 and 4.21/1.44; n = 13 verify 5.65/6.27 and
# 7.78/6.27, depths 3.49/5.01 and 6.79/4.91; n = 14 verify 6.80/10.63 and
# 9.77/11.39, depths 3.99/7.76 and 8.00/9.47 ms.
_DENSE_MAX_VERTICES = 1 << 12


def _stacks(items, planes: np.ndarray) -> list:
    """items cut into runs of as many as fit _STACK_BYTES when each takes
    one row of planes (one item per run at least)."""
    size = max(1, _STACK_BYTES // (planes.itemsize * planes.shape[-1]))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _search_trees(labels: np.ndarray, n: int, root: int, *head) -> list:
    """The results of the tasks head, then (depth, reach, touched) of each
    tree label 1..n // 2 searched from root.

    A cube of at most _DENSE_MAX_VERTICES vertices runs the head tasks, then
    one search of all its trees as vertex sets (_search_sets).  A larger
    cube, or one whose set search passes its depth guard, is searched in
    groups (_search_group), over masks from one set of the labels' bit
    planes, as many as labels.max() has bits.  Every plane is filled a block
    of _BLOCK_VERTICES vertices at a time (the whole cube if smaller), one
    task per block, so on two threads the helper fills the even-numbered
    blocks."""
    vertices, done = num_vertices(n), []
    if vertices <= _DENSE_MAX_VERTICES:
        done, head = [task() for task in head], ()
        found = _search_sets(labels, n, root)
        if found is not None:
            return done + found
    planes = np.empty((int(labels.max(initial=0)).bit_length(), vertices), np.min_scalar_type(vertices - 1))
    groups = _stacks(range(1, n // 2 + 1), planes)
    threads = len(groups) >= 2 and vertices >= _THREAD_MIN_VERTICES and _usable_cpus() >= 2
    run = _on_two_threads if threads else lambda tasks: [task() for task in tasks]
    size = min(vertices, _BLOCK_VERTICES)
    run([partial(bit_planes, labels, n, planes, range(start, start + size)) for start in range(0, vertices, size)])
    found = run([*head, *(partial(_search_group, planes, trees, n, root) for trees in groups)])
    return done + found[: len(head)] + [tree for group in found[len(head) :] for tree in group]


def _search_sets(labels: np.ndarray, n: int, root: int) -> list[tuple[int, int, int]] | None:
    """(depth, reach, touched) of each tree label 1..n // 2 searched from
    root breadth-first over Python-int vertex sets, or None once the search
    passes 4n levels.

    Bit t * 2^n + x of a set is vertex x of tree t + 1.  Each dimension d
    has the set of the lower ends of the tree edges along d, one packbits of
    the labels' matches written at the lower ends, and the set of their
    upper ends, 2^d above.  One level is a few shifts and ANDs of the
    frontier per dimension, whatever its width."""
    k, half, size = n // 2, 1 << (n - 1), 1 << n
    hit = labels.reshape(n, half) == np.arange(1, k + 1, dtype=labels.dtype).reshape(-1, 1, 1)
    ends = np.zeros((n, k, size), bool)
    for d in range(n):
        ends[d].reshape(k, half >> d, 2, 1 << d)[:, :, 0] = hit[:, d].reshape(k, half >> d, 1 << d)
    steps = []
    for d, row in enumerate(np.packbits(ends.reshape(n, -1), axis=1, bitorder="little")):
        lower = int.from_bytes(row, "little")
        steps.append((1 << d, lower, lower << (1 << d)))
    frontier = seen = sum(1 << (t * size + root) for t in range(k))
    levels = []  # the frontier of every level, root level first
    while frontier:
        if len(levels) > 4 * n:
            return None
        levels.append(frontier)
        reached = 0
        for shift, lower, upper in steps:
            reached |= (frontier & lower) << shift | (frontier & upper) >> shift
        frontier = reached & ~seen
        seen |= frontier
    touched, tree = 0, (1 << size) - 1
    for _, lower, upper in steps:
        touched |= lower | upper
    return [
        (
            next(depth for depth in reversed(range(len(levels))) if levels[depth] >> t * size & tree),
            (seen >> t * size & tree).bit_count() - 1,
            (touched >> t * size & tree).bit_count(),
        )
        for t in range(k)
    ]


def _search_group(planes: np.ndarray, trees, n: int, root: int) -> list[tuple[int, int, int | None]]:
    """(depth, reach, touched) of each of trees searched from root: one walk
    of the group, then a marked search of the own mask row of each tree the
    walk cuts.  reach counts the vertices reached past root.  touched, the
    vertices the tree's edges touch (its mask's non-zero entries), is None
    for a tree the walk settles with every vertex reached: a spanning tree,
    which touches them all."""
    masks = plane_masks(planes, trees, n)
    full = num_vertices(n) - 1
    found = []
    for mask, depth, reach in zip(masks, *_search(masks.reshape(-1), n, root)):
        spanning = depth is not None and reach == full
        if depth is None:
            (depth,), (reach,) = _search(mask, n, root, np.zeros(mask.size, dtype=np.int32))
        found.append((depth, reach, None if spanning else int(np.count_nonzero(mask))))
    return found


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
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="cubetrees-walk") as pool:
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


def _search(
    marks: np.ndarray, n: int, source: int, order: np.ndarray | None = None
) -> tuple[list[int | None], list[int]]:
    """(depths, reach) of each tree in a search of a group from source: the
    last level that held its entries, and how many entries it had.

    marks stacks the group's masks, tree t's at offset t * 2^n, and every
    tree's search starts at source.  So an entry's index is t << n | vertex;
    a packed entry shifts its came-by bit above the tree number.

    Without order the search is a walk that never steps back.  A tree whose
    reach passes 2^n - 1 holds a cycle: it is cut, its depth None and its
    entries dropped, while the other trees walk on.  A level of more than
    2^n - 1 entries per tree is not finished: the trees it would carry past
    2^n - 1 entries are cut by a count of their frontier's mask bits, and
    the level is stepped again without them.  With order, a zeroed int32
    array of marks.size entries, every level keeps only first visits
    (_first_visits), so a cycle cannot loop the search and it has no limit.
    A tree of a walk spans the cube exactly when it settles with a reach of
    2^n - 1."""
    group = marks.size >> n
    tree = (1 << (group - 1).bit_length()) - 1  # an entry's tree number, shifted down by n
    shift = n + tree.bit_length()
    mask = memoryview(marks)
    full = num_vertices(n) - 1
    limit = group * full  # more than any level of a walk over trees
    frontier = [t << n | source for t in range(group)]
    if order is not None:
        seen, limit = memoryview(order), math.inf
        order[frontier] = 1
    depths, reach, depth = [0] * group, [0] * group, 0
    alive = [*range(group)]  # the trees in frontier: a tree missing from a level has ended
    while True:
        reached = _level(marks, mask, shift, frontier, limit)
        if reached is None:  # cut each tree the level carries past 2^n - 1 entries, and step again
            wide = isinstance(frontier, tuple)
            x = frontier[1].astype(np.int64) << shift | frontier[0] if wide else np.asarray(frontier)
            trees, bits = x >> n & tree, marks[x & (1 << shift) - 1] ^ (x >> shift)
            counts = np.bincount(trees, sum(bits >> d & 1 for d in range(n)), group)  # popcounts per tree
            for t in alive:
                if reach[t] + counts[t] > full:
                    depths[t] = None  # a cycle
            alive = [t for t in alive if depths[t] is not None]
            frontier = x[np.isin(trees, alive)].tolist()
            continue
        if order is not None:
            reached = _first_visits(reached, order, seen, shift)
        wide = isinstance(reached, tuple)
        size = reached[0].size if wide else len(reached)
        if not size:
            for t in alive:
                depths[t] = depth
            return depths, reach
        if len(alive) == 1:
            reach[alive[0]] += size
            if reach[alive[0]] > full:
                depths[alive[0]] = None
                return depths, reach
        else:
            trees = reached[0] >> n if wide else np.asarray(reached) >> n & tree
            counts = np.bincount(trees, minlength=group).tolist()
            for t in alive:
                reach[t] += counts[t]
                if not counts[t]:
                    depths[t] = depth  # the last level that held its entries
                elif reach[t] > full:
                    depths[t] = None  # a cycle
            cut = [t for t in alive if depths[t] is None]
            if cut:
                keep = ~np.isin(trees, cut)
                reached = (reached[0][keep], reached[1][keep]) if wide else np.asarray(reached)[keep].tolist()
            alive = [t for t in alive if counts[t] and depths[t] is not None]
        frontier, depth = reached, depth + 1


def _level(
    marks: np.ndarray, mask: memoryview, shift: int, frontier: list[int] | tuple, limit: float
) -> list[int] | tuple | None:
    """The entries one level past frontier, or None once they number more
    than limit.  A packed entry is a mask index plus, shifted left by shift,
    the mask bit it was reached by; each of its other mask bits gives one
    next entry.  A level changes form only when it crosses _WIDE_LEVEL.
    mask is memoryview(marks), made once per search for the narrow loop."""
    full = (1 << shift) - 1
    if isinstance(frontier, list) and len(frontier) >= _WIDE_LEVEL:
        x = np.asarray(frontier)
        frontier = (x & full).astype(np.uint32), (x >> shift).astype(marks.dtype)
    elif isinstance(frontier, tuple) and frontier[0].size < _WIDE_LEVEL:
        frontier = (frontier[1].astype(np.int64) << shift | frontier[0]).tolist()
    if isinstance(frontier, tuple):
        return _wide_walk_level(marks, *frontier, limit)
    reached = []
    for entry in frontier:
        x = entry & full
        rest = mask[x] ^ (entry >> shift)
        while rest:
            low = rest & -rest
            rest ^= low
            reached.append(x ^ low | low << shift)
    return None if len(reached) > limit else reached


def _wide_walk_level(
    marks: np.ndarray, index: np.ndarray, came: np.ndarray, limit: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """_level for a wide frontier of uint32 indices and their came-by bits:
    the lowest remaining bit of every frontier mask is peeled once per pass,
    and the level is dropped as soon as it holds more than limit entries."""
    bits = marks.take(index) ^ came  # faster than marks[index] for a uint32 index
    indices, cames, size = [], [], 0
    while True:
        keep = bits != 0
        index, bits = index[keep], bits[keep]
        size += index.size
        if size > limit:
            return None
        if not index.size:
            break
        low = bits & -bits
        indices.append(index ^ low)
        cames.append(low)
        bits ^= low
    return (np.concatenate(indices), np.concatenate(cames)) if indices else (index, bits)


def _first_visits(
    reached: list[int] | tuple, order: np.ndarray, seen: memoryview, shift: int
) -> list[int] | tuple:
    """The entries of reached whose mask index (t << n | vertex in a group)
    order does not mark yet, one per index, now marked.

    A list of packed entries, the index the bits below shift, is checked and
    marked entry by entry through seen, which is memoryview(order), made
    once per search.  An (index, came) pair is kept without a sort: every
    entry writes its 1-based position to order[index], which marks the
    index, and only the entry whose position order still holds survives.
    """
    full = (1 << shift) - 1
    if isinstance(reached, list):
        first = []
        for entry in reached:
            if not seen[entry & full]:
                seen[entry & full] = 1
                first.append(entry)
        return first
    index, came = reached
    keep = order[index] == 0
    index, came = index[keep], came[keep]
    place = np.arange(1, index.size + 1, dtype=np.int32)
    order[index] = place
    keep = order[index] == place
    return index[keep], came[keep]
