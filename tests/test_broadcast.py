import json
import math
import os
import re
import resource
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cubetrees.broadcast
import cubetrees.cli
import cubetrees.walk
from cubetrees.broadcast import broadcast_metrics, link_load, tree_depths
from cubetrees.construct import Decomposition, construct
from cubetrees.files import decomposition_to_bytes
from cubetrees.hypercube import num_edges, plane_masks
from cubetrees.verify import verify_decomposition
from broadcast_reference import reference_tree_depths, reference_tree_searches
from deadline import deadline
from mask_reference import all_planes
from test_verify import assert_same_report, best_of_three_each, gray_code_path, random_labels, single_mutation

# A search on cyclic or random labels that never ends fails its test after
# this many seconds instead of hanging the suite; each such test takes a
# few seconds at most.
SEARCH_SECONDS = 60


def test_depth_of_base_path_tree():
    # the 2-cube tree is the path 00-01-11-10, depth 3 from vertex 00
    assert tree_depths(construct(2), 0) == [3]


@pytest.mark.parametrize("n", range(2, 9))
def test_depths_at_least_the_diameter(n):
    dec = construct(n)
    for root in {0, (1 << n) - 1, 5 % (1 << n)}:
        assert all(depth >= n for depth in tree_depths(dec, root))


def test_depths_regression_constants():
    assert tree_depths(construct(6), 0) == [10, 9, 10]
    assert tree_depths(construct(4), 0) == [7, 5]


def gray_path_tree(n):
    """Tree 1 is the Gray-code path through Q_n, every other edge leftover."""
    labels = np.zeros(num_edges(n), dtype=np.uint8)
    labels[gray_code_path(n)] = 1
    return Decomposition(n=n, labels=labels)


def test_depths_along_a_hamiltonian_path_tree():
    n = 16
    dec = gray_path_tree(n)
    assert tree_depths(dec, 0) == [(1 << n) - 1] + [0] * (dec.k - 1)
    mid = 1 << (n - 1)
    assert tree_depths(dec, mid ^ (mid >> 1))[0] == mid
    # 2^n levels of one vertex each: the narrow levels must stay as cheap as
    # the dict-of-lists search
    got, fast, want, slow = best_of_three_each(tree_depths, reference_tree_depths, dec, 0)
    assert got == want
    assert fast <= slow


@deadline(SEARCH_SECONDS)
def test_cyclic_labels_keep_one_copy_of_each_vertex_per_level():
    # Every edge of Q_12 in tree 1: the number of shortest paths to a vertex
    # grows factorially with its depth, the number of vertices does not.
    n = 12
    dec = Decomposition(n=n, labels=np.ones(num_edges(n), dtype=np.uint8))
    start = time.perf_counter()
    assert tree_depths(dec, 0) == [n, 0, 0, 0, 0, 0]
    assert tree_depths(dec, (1 << n) - 1) == [n, 0, 0, 0, 0, 0]
    assert time.perf_counter() - start < 2


# Runs tree_depths on every edge of Q_16 in tree 1 and prints the depths and
# the tracemalloc peak as JSON.
ALL_ONES_Q16 = """
import json, tracemalloc
import numpy as np
from cubetrees.broadcast import tree_depths
from cubetrees.construct import Decomposition
from cubetrees.hypercube import num_edges
dec = Decomposition(n=16, labels=np.ones(num_edges(16), dtype=np.uint8))
tracemalloc.start()
depths = tree_depths(dec, 0)
print(json.dumps([depths, tracemalloc.get_traced_memory()[1]]))
"""


def limit_address_space():
    # About 1 GB: a Python + numpy process starts near 150 MB, so a level that
    # grows without bound raises MemoryError instead of exhausting the machine.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@deadline(SEARCH_SECONDS)
def test_a_cycle_stops_the_walk_inside_its_level():
    # Every edge of Q_16 in tree 1: a walk that never steps back passes 2^16
    # vertices within six levels.  Stopping inside that level keeps the peak
    # at the marked search's own, about 6 MB; finishing it first took 13 MB.
    # The search runs in a child process under an address-space limit, so a
    # walk without its limit fails this test instead of being killed.
    n = 16
    dec = Decomposition(n=n, labels=np.ones(num_edges(n), dtype=np.uint8))
    package = str(Path(cubetrees.__file__).parents[1])
    # one BLAS thread: each thread reserves address space when numpy loads
    threads = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", ALL_ONES_Q16],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": package, **threads},
        preexec_fn=limit_address_space,
    )
    assert proc.returncode == 0, proc.stderr
    depths, peak = json.loads(proc.stdout)
    assert depths == [n] + [0] * (dec.k - 1)
    assert peak < 8 << 20


def searches(mp):
    """(group size, source, marked?) of every search tree_depths makes, with
    small cubes searched by the walk too."""
    calls, search = [], cubetrees.walk._search

    def counted(marks, n, source, order=None):
        calls.append((marks.size >> n, source, order is not None))
        return search(marks, n, source, order)

    mp.setattr(cubetrees.walk, "_DENSE_MAX_VERTICES", 0)
    mp.setattr(cubetrees.walk, "_search", counted)
    return calls


@deadline(SEARCH_SECONDS)
def test_only_a_cyclic_component_gets_a_marked_search(monkeypatch):
    calls = searches(monkeypatch)
    for n in range(2, 11):
        tree_depths(construct(n), (1 << n) - 1)
    tree_depths(gray_path_tree(12), 5)
    assert [source for _, source, marked in calls if marked] == []
    # every edge of Q_12 in tree 1, labels 2..6 empty: one vertex each
    cyclic = Decomposition(n=12, labels=np.ones(num_edges(12), dtype=np.uint8))
    assert tree_depths(cyclic, 7) == [12, 0, 0, 0, 0, 0]
    assert [source for _, source, marked in calls if marked] == [7]


@deadline(SEARCH_SECONDS)
def test_a_deep_cyclic_component_costs_two_group_searches(monkeypatch):
    # The Gray-code Hamiltonian cycle of Q_12 in tree 1: the group walk goes
    # half way round before it cuts tree 1, then one marked search of tree
    # 1's own mask row.
    dec = gray_path_tree(12)
    dec.labels[11 << 11] = 1  # the edge 0 - 2^11 closes the path
    calls = searches(monkeypatch)
    assert tree_depths(dec, 0) == reference_tree_depths(dec, 0) == [2048, 0, 0, 0, 0, 0]
    assert calls == [(6, 0, False), (1, 0, True)]


def test_a_group_of_trees_is_walked_once(monkeypatch):
    # All trees of a decomposition in one walk up to n = 15, four per walk at
    # n = 16, and no group searched again.
    calls = searches(monkeypatch)
    for dec in [construct(n) for n in range(2, 17)] + [gray_path_tree(12)]:
        calls.clear()
        tree_depths(dec, (1 << dec.n) - 1)
        assert [size for size, _, _ in calls] == ([4, 4] if dec.n == 16 else [dec.k])


@deadline(SEARCH_SECONDS)
@settings(max_examples=80, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.integers(0, 3), st.data())
def test_the_walk_cuts_only_cyclic_trees(n, seed, skew, data):
    # A random stack of tree labels (repeats allowed) walked from a random
    # source: a tree the walk settles has the reference's depth and reach,
    # and it may leave a tree unsettled only when the source's component in
    # it holds a cycle.  The marked search settles every tree.
    dec = random_labels(n, seed, skew)
    source = data.draw(st.integers(0, (1 << n) - 1))
    trees = data.draw(st.lists(st.integers(1, dec.k), min_size=1, max_size=6))
    want = reference_tree_searches(dec, source)
    marks = plane_masks(all_planes(dec.labels, n), trees, n).reshape(-1)
    walked = cubetrees.walk._search(marks, n, source)
    marked = cubetrees.walk._search(marks, n, source, np.zeros(marks.size, dtype=np.int32))
    for t, (depth, reach) in enumerate(zip(*walked)):
        far, reached, cyclic = want[trees[t] - 1]
        if depth is None:
            assert cyclic
        else:
            assert (depth, reach + 1) == (far, reached)
    assert [(depth, reach + 1) for depth, reach in zip(*marked)] == [want[j - 1][:2] for j in trees]


def test_a_level_past_the_budget_cuts_only_the_trees_it_overfills():
    # Two copies of a cyclic tree 1 fill one level past the group's budget
    # of 3 * 63 entries while acyclic tree 2 is still walking: the copies
    # are cut, and tree 2 walks on to its own depth and reach.
    dec = random_labels(6, 22247, 1)
    marks = plane_masks(all_planes(dec.labels, 6), [1, 1, 2], 6).reshape(-1)
    depths, reach = cubetrees.walk._search(marks, 6, 6)
    far, reached, cyclic = reference_tree_searches(dec, 6)[1]
    assert depths == [None, None, far] and reach[2] + 1 == reached and not cyclic
    assert max(reach[:2]) < (1 << 6) - 1  # the budget cut the copies, not their own reach


@pytest.mark.parametrize("n", range(8, 15))
def test_one_moved_tree_edge_leaves_one_tree_unsettled(n):
    # the tree that gains the edge holds a cycle; every other tree of the
    # group, the one that lost it included, is settled by the same walk
    dec = construct(n)
    rng = np.random.default_rng(n)
    for eid in rng.choice(np.flatnonzero(dec.labels), size=8, replace=False).tolist():
        labels = dec.labels.copy()
        new = 1 + (int(labels[eid]) + int(rng.integers(dec.k - 1))) % dec.k
        labels[eid] = new
        marks = plane_masks(all_planes(labels, n), range(1, dec.k + 1), n).reshape(-1)
        depths, reach = cubetrees.walk._search(marks, n, 0)
        assert [j for j, depth in enumerate(depths, 1) if depth is None] == [new]


@pytest.mark.parametrize("n", range(8, 15))
def test_one_moved_tree_edge_costs_verify_one_marked_search(monkeypatch, n):
    # verify's twin of the test above: the walk cuts only the tree that
    # gains the edge, which alone gets a marked search, of its own mask row
    dec = construct(n)
    rng = np.random.default_rng(n)
    calls = searches(monkeypatch)
    for eid in rng.choice(np.flatnonzero(dec.labels), size=8, replace=False).tolist():
        labels = dec.labels.copy()
        labels[eid] = 1 + (int(labels[eid]) + int(rng.integers(dec.k - 1))) % dec.k
        calls.clear()
        assert not assert_same_report(Decomposition(n=n, labels=labels)).overall
        assert [call for call in calls if call[2]] == [(1, 0, True)]


def small_cube(data):
    """A labeling of Q_n, n = 1..12, that the vertex-set search takes:
    construct(n), one label of it changed, a skewed random labeling, or
    every edge in tree 1."""
    n = data.draw(st.integers(1, 12))
    kind = data.draw(st.sampled_from(["construct", "mutation", "random", "ones"]))
    if kind == "random":
        return random_labels(n, data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(0, 3)))
    labels = np.full(num_edges(n), min(1, n // 2), np.uint8) if kind == "ones" else construct(n).labels.copy()
    if kind == "mutation" and n > 1:
        eid = data.draw(st.integers(0, num_edges(n) - 1))
        labels[eid] = data.draw(st.integers(0, n // 2).filter(lambda j: j != labels[eid]))
    return Decomposition(n=n, labels=labels)


def searched(dec, root):
    """tree_depths from root with its reach, and the verify report."""
    depths = tree_depths(dec, root)
    return list(depths), depths.reached, verify_decomposition(dec).to_dict()


@deadline(SEARCH_SECONDS)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_small_cubes_search_their_vertex_sets_like_the_references(data):
    # Up to 2^12 vertices every tree label is searched at once as vertex
    # sets; the depths, reach and reports equal the dict-of-lists search,
    # the union-find verifier, and the walk forced on the same input.
    dec = small_cube(data)
    root = data.draw(st.integers(0, (1 << dec.n) - 1))
    want = reference_tree_searches(dec, root)
    depths = tree_depths(dec, root)
    assert depths == [depth for depth, _, _ in want]
    assert depths.reached == tuple(reached for _, reached, _ in want)
    assert_same_report(dec)
    got = searched(dec, root)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubetrees.walk, "_DENSE_MAX_VERTICES", 0)
        assert searched(dec, root) == got


def walked_cubes(mp):
    """The dimension of every walk or marked search, the size cut left as it is."""
    calls, search = [], cubetrees.walk._search

    def recorded(*args):
        calls.append(args[1])
        return search(*args)

    mp.setattr(cubetrees.walk, "_search", recorded)
    return calls


def test_only_cubes_above_the_size_cut_are_walked(monkeypatch):
    # construct(12) has 2^12 vertices: no planes, no walk; construct(13) is walked
    calls = walked_cubes(monkeypatch)
    for n in (12, 13):
        dec = construct(n)
        assert tree_depths(dec, (1 << n) // 3) == reference_tree_depths(dec, (1 << n) // 3)
        assert verify_decomposition(dec).overall
    assert calls and set(calls) == {13}


def walked(dec, root):
    """tree_depths with the walk forced on a small cube."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubetrees.walk, "_DENSE_MAX_VERTICES", 0)
        return tree_depths(dec, root)


@pytest.mark.parametrize("closed", [False, True])
@deadline(SEARCH_SECONDS)
def test_a_deep_tree_falls_back_to_the_walk(monkeypatch, closed):
    # The Gray-code Hamiltonian path of Q_12, and the cycle that closes it:
    # the vertex-set search gives up after 4n levels and the walk takes over,
    # so the depth guard costs little next to the walk alone.
    dec = gray_path_tree(12)
    if closed:
        dec.labels[11 << 11] = 1  # the edge 0 - 2^11
    calls = walked_cubes(monkeypatch)
    assert tree_depths(dec, 0) == reference_tree_depths(dec, 0) == [2048 if closed else 4095] + [0] * 5
    assert calls
    got, fast, want, slow = best_of_three_each(tree_depths, walked, dec, 0)
    assert got == want
    assert fast <= 1.5 * slow


def helper_searches(mp):
    """Take the walk's two-thread path at every size, the planes filled in
    blocks of 8 vertices; return the idents of the threads that search a
    group (walk._search_group)."""
    idents, search = [], cubetrees.walk._search_group

    def recorded(*args):
        idents.append(threading.get_ident())
        return search(*args)

    mp.setattr(cubetrees.walk, "_DENSE_MAX_VERTICES", 0)
    mp.setattr(cubetrees.walk, "_THREAD_MIN_VERTICES", 1)
    mp.setattr(cubetrees.walk, "_BLOCK_VERTICES", 8)
    mp.setattr(cubetrees.walk, "_usable_cpus", lambda: 2)
    mp.setattr(cubetrees.walk, "_search_group", recorded)
    return idents


def assert_depths_on_two_threads_match_reference(dec, data):
    roots = data.draw(st.lists(st.integers(0, (1 << dec.n) - 1), min_size=1, max_size=3))
    with pytest.MonkeyPatch.context() as mp:
        grouped(mp, 1, dec)
        idents = helper_searches(mp)
        for root in roots:
            depths, want = tree_depths(dec, root), reference_tree_searches(dec, root)
            assert depths == [depth for depth, _, _ in want]
            assert depths.reached == tuple(reached for _, reached, _ in want)
    # a helper thread searches every second group from the first on, so one
    # ran exactly when there were two or more groups (trees)
    here = threading.get_ident()
    assert len(idents) == len(roots) * dec.k
    assert len(idents) - idents.count(here) == len(roots) * ((dec.k + 1) // 2 if dec.k >= 2 else 0)


@deadline(SEARCH_SECONDS)
@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.integers(0, 2**32 - 1), st.integers(0, 3), st.data())
def test_random_labels_match_dict_bfs_reference_on_two_threads(n, seed, skew, data):
    assert_depths_on_two_threads_match_reference(random_labels(n, seed, skew), data)


@deadline(SEARCH_SECONDS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_single_mutations_match_dict_bfs_reference_on_two_threads(data):
    assert_depths_on_two_threads_match_reference(single_mutation(data), data)


@pytest.mark.slow
def test_depths_at_scale():
    dec = construct(20)
    start = time.perf_counter()
    assert tree_depths(dec, 0) == [31, 32, 35, 38, 41, 44, 47, 50, 49, 52]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n", range(2, 10))
def test_rows_hold_every_roots_depths(n):
    # each root's row of depths, one per tree, from every root of construct(n)
    dec = construct(n)
    for root in range(1 << n):
        assert tree_depths(dec, root) == reference_tree_depths(dec, root)


@pytest.mark.parametrize("n, seed, skew", [(5, 1, 0), (6, 2, 3), (7, 3, 2), (8, 4, 1)])
@deadline(SEARCH_SECONDS)
def test_every_root_of_random_labels_matches_reference(n, seed, skew):
    # cyclic labels stop the walk and take the marked search from every root
    dec = random_labels(n, seed, skew)
    for root in range(1 << n):
        assert tree_depths(dec, root) == reference_tree_depths(dec, root)


@pytest.mark.parametrize("n, high", [(6, 16), (8, 8), (9, 16), (16, 16)])
def test_labels_with_a_bit_above_k_do_not_alias(n, high):
    # some edges of each tree j carry high + j, whose low bits are j's: the
    # bit planes must cover the labels' top bit, or those edges stay in tree j
    dec = construct(n)
    labels = dec.labels.copy()
    rng = np.random.default_rng(n)
    for j in range(1, dec.k + 1):
        ids = dec.tree_edge_ids(j)
        labels[rng.choice(ids, size=1 + j % 3, replace=False)] = high + j
    dec = Decomposition(n=n, labels=labels)
    for root in [0, (1 << n) - 1, int(rng.integers(1 << n))]:
        assert tree_depths(dec, root) == reference_tree_depths(dec, root)


def assert_depths_match_reference(dec, data):
    for root in data.draw(st.lists(st.integers(0, (1 << dec.n) - 1), min_size=1, max_size=4)):
        assert tree_depths(dec, root) == reference_tree_depths(dec, root)


@deadline(SEARCH_SECONDS)
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3), st.data())
def test_random_labels_match_dict_bfs_reference(n, seed, skew, data):
    # Random "trees" hold cycles, fall apart or are empty; skew > 0 makes one
    # label dominate, so some of them are large and cyclic.
    assert_depths_match_reference(random_labels(n, seed, skew), data)


@deadline(SEARCH_SECONDS)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_single_mutations_match_dict_bfs_reference(data):
    n = data.draw(st.integers(2, 10))  # Q_1 has k = 0: no other label to move to
    dec = construct(n)
    eid = data.draw(st.integers(0, num_edges(n) - 1))
    new = data.draw(st.integers(0, dec.k).filter(lambda j: j != dec.labels[eid]))
    labels = dec.labels.copy()
    labels[eid] = new
    assert_depths_match_reference(Decomposition(n=n, labels=labels), data)


# Group g makes tree_depths walk and build the masks of min(k, g) trees
# together; None groups all k.  Cyclic labels make a group walk cut a tree,
# and that tree then gets one marked search of its own mask row.
GROUPS = [1, 2, None]


def grouped(mp, group, dec):
    row = plane_masks(all_planes(dec.labels, dec.n), [0], dec.n).nbytes
    mp.setattr(cubetrees.walk, "_STACK_BYTES", (group or dec.k) * row)


@pytest.mark.parametrize("group", GROUPS)
@deadline(SEARCH_SECONDS)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3), st.data())
def test_random_labels_match_dict_bfs_reference_in_groups(group, n, seed, skew, data):
    dec = random_labels(n, seed, skew)
    with pytest.MonkeyPatch.context() as mp:
        grouped(mp, group, dec)
        assert_depths_match_reference(dec, data)


@pytest.mark.parametrize("group", GROUPS)
@deadline(SEARCH_SECONDS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_single_mutations_match_dict_bfs_reference_in_groups(group, data):
    dec = single_mutation(data)
    with pytest.MonkeyPatch.context() as mp:
        grouped(mp, group, dec)
        assert_depths_match_reference(dec, data)


def pairs(level, shift):
    """(index, came-by bit) of every entry of a level: a list of packed ints,
    the came-by bit above shift, or an (index, came) pair of arrays."""
    if isinstance(level, list):
        return [(entry & ((1 << shift) - 1), entry >> shift) for entry in level]
    index, came = level
    return list(zip(index.tolist(), came.tolist()))


def as_arrays(entries, dtype):
    """A wide level of (index, came-by bit) entries: uint32 indices and
    came-by bits in dtype."""
    index = np.array([index for index, _ in entries], dtype=np.uint32)
    return index, np.array([came for _, came in entries], dtype=dtype)


def loop_level(marks, shift, level):
    """The next level's (index, came-by bit) pairs, from the interpreter loop."""
    packed = [index | came << shift for index, came in pairs(level, shift)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubetrees.walk, "_WIDE_LEVEL", math.inf)
        reached = cubetrees.walk._level(marks, memoryview(marks), shift, packed, math.inf)
    return pairs(reached, shift)


def wide_levels(mp, width):
    """Expand every level of at least width entries with numpy, and check
    each step.  The first-visit filter returns only new vertices, each once,
    now marked, and marks no other vertex.  A walk step returns the entries
    the interpreter loop would, as uint32 indices and came-by bits in the
    masks' dtype, or None only past its limit."""
    first, walk = cubetrees.walk._first_visits, cubetrees.walk._wide_walk_level

    def checked(reached, order, seen, shift):
        before = order.copy()
        kept = first(reached, order, seen, shift)
        assert isinstance(kept, list) or kept[0].dtype == np.uint32
        y = np.array([index for index, _ in pairs(kept, shift)], dtype=np.int64)
        assert np.unique(y).size == y.size
        assert not before[y].any() and order[y].all()
        assert np.count_nonzero(order) - np.count_nonzero(before) == y.size
        return kept

    def walked(marks, index, came, left):
        reached = walk(marks, index, came, left)
        shift = 32  # above every index; only the pairs are compared
        want = loop_level(marks, shift, (index, came))
        if reached is None:
            assert len(want) > left
        else:
            assert reached[0].dtype == np.uint32 and reached[1].dtype == marks.dtype
            assert sorted(pairs(reached, shift)) == sorted(want)
        return reached

    mp.setattr(cubetrees.walk, "_WIDE_LEVEL", width)
    mp.setattr(cubetrees.walk, "_first_visits", checked)
    mp.setattr(cubetrees.walk, "_wide_walk_level", walked)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.uint8, np.uint16, np.uint32]), st.integers(1, 4), st.data())
def test_wide_walk_level_matches_the_loop(dtype, group, data):
    # A wide level of a group of up to four trees, over random masks of each
    # dtype: the same entries as the interpreter loop, indices kept uint32
    # and came-by bits in the masks' dtype, and None only past the limit.
    n = data.draw(st.integers(1, min(np.iinfo(dtype).bits, 10)))
    shift = n + (group - 1).bit_length()
    size = group << n
    masks = st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size)
    marks = np.array(data.draw(masks), dtype=dtype)
    index = st.integers(0, size - 1)
    came = st.sampled_from([0] + [1 << d for d in range(n)])
    frontier = data.draw(st.lists(st.tuples(index, came), max_size=200))
    index, came = as_arrays(frontier, dtype)
    want = loop_level(marks, shift, (index, came))
    left = data.draw(st.one_of(st.integers(0, len(want) + 2), st.just(math.inf)))
    reached = cubetrees.walk._wide_walk_level(marks, index, came, left)
    if reached is None:
        assert len(want) > left
    else:
        assert len(want) <= left
        assert reached[0].dtype == np.uint32 and reached[1].dtype == dtype
        assert sorted(pairs(reached, shift)) == sorted(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.integers(1, 4), st.booleans(), st.data())
def test_first_visits_keep_one_entry_per_unmarked_vertex(n, group, as_array, data):
    # An entry of tree t in a group has index t << n | vertex; packed, its
    # came-by bit sits above shift.  One visit array covers the group.
    shift = n + (group - 1).bit_length()
    tree, vertex = st.integers(0, group - 1), st.integers(0, (1 << n) - 1)
    index = st.builds(lambda t, v: t << n | v, tree, vertex)
    came_by = st.sampled_from([0] + [1 << d for d in range(n)])
    entries = data.draw(st.lists(st.tuples(index, came_by), max_size=300))
    entries += data.draw(st.lists(st.sampled_from(entries), max_size=50)) if entries else []
    marked = data.draw(st.sets(index))
    order = np.zeros(group << n, dtype=np.int32)
    order[sorted(marked)] = data.draw(st.integers(1, 2**31 - 1))
    if as_array:
        reached = as_arrays(entries, np.min_scalar_type((1 << n) - 1))
    else:
        reached = [i | c << shift for i, c in entries]
    kept = pairs(cubetrees.walk._first_visits(reached, order, memoryview(order), shift), shift)
    new = {i for i, _ in entries} - marked
    assert sorted(i for i, _ in kept) == sorted(new)  # each unmarked (tree, vertex) exactly once
    assert not Counter(kept) - Counter(entries)  # as one of its entries
    assert set(np.flatnonzero(order).tolist()) == marked | new


# Width 1 sends every level through numpy, width 2 all but one-vertex levels.
@pytest.mark.parametrize("width", [1, 2])
@deadline(SEARCH_SECONDS)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3), st.data())
def test_random_labels_match_dict_bfs_reference_on_wide_levels(width, n, seed, skew, data):
    with pytest.MonkeyPatch.context() as mp:
        wide_levels(mp, width)
        assert_depths_match_reference(random_labels(n, seed, skew), data)


@pytest.mark.parametrize("width", [1, 2])
@deadline(SEARCH_SECONDS)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_single_mutations_match_dict_bfs_reference_on_wide_levels(width, data):
    with pytest.MonkeyPatch.context() as mp:
        wide_levels(mp, width)
        assert_depths_match_reference(single_mutation(data), data)


def test_root_out_of_range():
    for root in (8, -1, 1.5, 2.0, True, "3", None, np.bool_(True), np.float64(3.0)):
        with pytest.raises(ValueError):
            tree_depths(construct(3), root)
    assert tree_depths(construct(3), np.int64(7)) == tree_depths(construct(3), np.uint8(7)) == [4]


@pytest.mark.parametrize("n", [2, 5, 8, 10, 12])
def test_link_load_is_one_on_valid_decompositions(n):
    assert link_load(construct(n)) == 1


def test_link_load_is_zero_without_trees():
    assert link_load(construct(1)) == 0


def _time(dec, root, parts=1, hop_cost=1.0):
    return broadcast_metrics(dec, root, parts, hop_cost).total_time_model


def test_broadcast_time_model():
    dec = construct(4)
    depths = tree_depths(dec, 0)
    assert _time(dec, 0, parts=1, hop_cost=1.0) == max(depths)
    # pinned regression values from the first run
    assert _time(dec, 0, parts=1, hop_cost=1.0) == 7.0
    assert _time(dec, 0, parts=4, hop_cost=2.0) == 20.0
    # doubling the chunk count adds exactly hop_cost * parts
    for parts in (1, 2, 5):
        gap = _time(dec, 0, 2 * parts) - _time(dec, 0, parts)
        assert gap == parts
    # monotone in both knobs
    times = [_time(dec, 0, parts=p) for p in range(1, 8)]
    assert times == sorted(times)
    assert _time(dec, 0, 3, hop_cost=2.0) == 2 * _time(dec, 0, 3)
    assert _time(dec, np.int64(0), parts=np.uint8(250), hop_cost=2.0) == 2 * (7 + 250 - 1)


def test_broadcast_time_errors(monkeypatch):
    def no_search(*args):
        raise AssertionError("a tree was searched before the arguments were checked")

    # bad arguments are rejected before any tree is searched: the root by
    # tree_depths, before it builds the bit planes of the masks
    monkeypatch.setattr(cubetrees.walk, "bit_planes", no_search)
    with pytest.raises(ValueError, match="zero trees"):
        broadcast_metrics(construct(1), 0)  # zero trees: model undefined
    for parts in (0, -3, 1.5, 2.0, True, np.bool_(True), np.float64(2.0)):
        with pytest.raises(ValueError, match="parts"):
            broadcast_metrics(construct(4), 0, parts=parts)
    for root in (16, -1, 1.5, True):
        with pytest.raises(ValueError, match="root"):
            broadcast_metrics(construct(4), root)
    with pytest.raises(ValueError, match="root must be >= 0, got -1"):
        broadcast_metrics(construct(4), -1)
    for hop_cost in (0, -2.0, float("nan"), float("inf"), "2", None, True, np.bool_(True)):
        with pytest.raises(ValueError, match="hop_cost"):
            broadcast_metrics(construct(4), 0, hop_cost=hop_cost)


def test_metrics_check_the_root_once(monkeypatch):
    # broadcast_metrics leaves the root to tree_depths: one check per call,
    # with the messages tree_depths gives
    checked, check = [], cubetrees.broadcast.check_integer

    def counted(name, value, least):
        checked.append(name)
        return check(name, value, least)

    monkeypatch.setattr(cubetrees.broadcast, "check_integer", counted)
    for root, message in [
        (-1, "root must be >= 0, got -1"),
        (16, "root 16 out of range for n=4"),
        (True, "root must be an integer, got True"),
    ]:
        checked.clear()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            broadcast_metrics(construct(4), root)
        assert checked.count("root") == 1
    checked.clear()
    metrics = broadcast_metrics(construct(4), np.int64(15))
    assert checked.count("root") == 1
    assert type(metrics.root) is int and metrics.root == 15
    assert metrics.depths == tuple(tree_depths(construct(4), 15))


def test_metrics_bundle():
    metrics = broadcast_metrics(construct(6), root=0, parts=2, hop_cost=0.5)
    assert metrics.root == 0
    assert metrics.depths == (10, 9, 10)
    assert metrics.max_link_load == 1
    assert metrics.total_time_model == 0.5 * (10 + 1)
    text = metrics.to_text()
    assert "depths" in text and "link load" in text


def test_metrics_say_which_trees_fall_short(tmp_path, capsys):
    n = 8
    dec = construct(n)
    # 40 edges of tree 1 moved to tree 2: tree 1 falls apart, tree 2 still
    # reaches every vertex, over cycles
    labels = dec.labels.copy()
    labels[dec.tree_edge_ids(1)[:40]] = 2
    moved = Decomposition(n=n, labels=labels)
    empty = Decomposition(n=n, labels=np.zeros(num_edges(n), dtype=np.uint8))
    for bad in (moved, empty):
        metrics = broadcast_metrics(bad, 0)
        want = reference_tree_searches(bad, 0)
        assert metrics.reached == tuple(reached for _, reached, _ in want)
        assert not metrics.ok
        lines = metrics.to_text().splitlines()
        short = [f"tree {j} reaches {count}" for j, count in enumerate(metrics.reached, 1) if count < 1 << n]
        assert lines[-1] == f"  short of all 256 vertices: {', '.join(short)}"
        path = tmp_path / "bad.dec"
        path.write_bytes(decomposition_to_bytes(bad))
        capsys.readouterr()
        assert cubetrees.cli.main(["broadcast", str(path)]) == cubetrees.cli.EXIT_VERIFY
        assert capsys.readouterr().out.splitlines()[-1] == lines[-1]
    assert broadcast_metrics(moved, 0).reached[1] == 1 << n
    assert broadcast_metrics(empty, 0).to_text().splitlines()[-1] == (
        "  short of all 256 vertices: tree 1 reaches 1, tree 2 reaches 1, tree 3 reaches 1, tree 4 reaches 1"
    )


@pytest.mark.parametrize("n", range(2, 11))
def test_metrics_of_a_valid_decomposition_keep_their_four_lines(n):
    metrics = broadcast_metrics(construct(n), (1 << n) - 1, parts=3)
    assert metrics.ok and metrics.reached == (1 << n,) * (n // 2)
    assert metrics.to_text() == "\n".join([
        f"broadcast metrics from root {(1 << n) - 1}:",
        f"  tree depths: {list(metrics.depths)}",
        "  max link load: 1",
        f"  pipelined time estimate: {metrics.total_time_model}",
    ])
