"""Level searches over per-vertex edge masks (hypercube.plane_masks).

Every search shares one level step (_level).  A frontier entry is a mask
index and the mask bit it was reached by; each of its other mask bits gives
one entry of the next level.  A narrow level is a list of Python ints, the
came-by bit shifted above the index, for an interpreter loop, so a deep,
thin tree (a Hamiltonian path has 2^n - 1 levels of one vertex) does not
pay numpy's fixed cost per call at every level.  A wide level is a pair of
arrays, uint32 indices and came-by bits in the masks' dtype, for a few
dozen whole-array calls.  A search covers a group of trees stacked in one
flat array, tree t's masks at offset t * 2^n, so an entry of tree t has
index t << n | vertex (below 2^24 under the dimension cap) and one step
expands the group.

Without a visit array the search (_search) is a walk: in a tree every step
leads to a new vertex, and a tree's depth is the last level holding one of
its entries.  A walk into a cycle would never end, so a tree whose entries
pass 2^n - 1 is cut (a cycle) while the other trees walk on, and a level of
more than 2^n - 1 entries per tree is dropped unfinished, cutting every tree
still walking.  So a label's walk from vertex 0 settles having reached all
2^n vertices exactly when the label is a spanning tree.  With a visit array
the search is breadth-first: each level passes a first-visit filter
(_first_visits) that marks the indices it keeps.
"""

from __future__ import annotations

import math

import numpy as np

from .hypercube import num_vertices

# A level with at least this many entries is expanded by numpy, a narrower
# one by the interpreter loop.  Measured on slices of the widest level of
# trees 1, 4 and 8 of construct(16), median of 500-2000 calls each: 8 entries
# took 2-4 us in the loop and 8-28 us in numpy, 64 took 5-18 us and 6-30 us,
# 128 took 17-40 us and 15-36 us, 256 took 33-85 us and 22-64 us.  The two
# cross between 64 and 128 entries; a tree has only a few levels in that band.
_WIDE_LEVEL = 64


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
    2^n - 1 entries per tree is not finished, and every tree still walking
    is cut.  With order, a zeroed int32 array of marks.size entries, every
    level keeps only first visits (_first_visits), so a cycle cannot loop
    the search and it has no limit.  A tree of a walk spans the cube exactly
    when it settles with a reach of 2^n - 1."""
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
        if reached is None:
            for t in alive:
                depths[t] = None
            return depths, reach
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
