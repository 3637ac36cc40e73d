import ast
import concurrent.futures
import importlib
import json
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cubetrees.cli
import cubetrees.verify
import cubetrees.walk
from cubetrees.construct import Decomposition, construct
from cubetrees.files import decomposition_from_bytes, decomposition_to_bytes
from cubetrees.hypercube import MalformedEdgeError, edge_endpoints, num_edges, plane_masks
from cubetrees.verify import (
    MalformedDecompositionError,
    forest_components,
    is_matching,
    verify_decomposition,
)
from cubetrees.walk import _stacks
from construct_reference import leftover_edge_ids
from deadline import deadline
from mask_reference import reference_edge_masks
from cube_reference import Edge, edge_id, squeeze_bit
from union_find_reference import (
    UnionFind,
    reference_forest_components,
    reference_is_matching,
    reference_is_spanning_tree,
    reference_report,
)


def ids_of(pairs, n):
    """Edge ids from (u, d) pairs."""
    return [edge_id(Edge(u, d), n) for u, d in pairs]


def spans_the_cube(ids, n):
    """A spanning tree of Q_n: 2^n - 1 edge ids forming one acyclic component."""
    return len(ids) == (1 << n) - 1 and forest_components(ids, n) == (True, 1)


def test_union_find_basics():
    uf = UnionFind(5)
    assert uf.union(0, 1)
    assert uf.union(1, 2)
    assert not uf.union(0, 2)
    assert uf.union(3, 4)
    assert uf.find(0) == uf.find(2)
    assert uf.find(3) == uf.find(4)
    assert uf.find(0) != uf.find(3)
    assert uf.merges == 3


def test_spanning_tree_examples():
    # the 4-cycle minus one edge spans the 2-cube
    assert spans_the_cube(ids_of([(0, 0), (1, 1), (2, 0)], 2), 2)
    # all four edges: wrong cardinality
    assert not spans_the_cube([0, 1, 2, 3], 2)
    # right cardinality but cyclic, so not connected to everything
    cyclic = ids_of([(0, 0), (0, 1), (1, 1), (2, 0), (0, 2), (5, 1), (4, 0)], 3)
    assert len(cyclic) == 7
    assert not spans_the_cube(cyclic, 3)
    for j in range(1, 4):
        assert spans_the_cube(construct(6).tree_edge_ids(j), 6)


def test_matching_examples():
    assert is_matching([], 4)
    assert not is_matching(ids_of([(0, 0), (0, 1)], 2), 2)  # share vertex 00
    leftover = leftover_edge_ids(construct(8))
    assert is_matching(leftover, 8) and leftover.size == 4


def test_forest_components_examples():
    assert forest_components(leftover_edge_ids(construct(3)), 3) == (True, 1)
    assert forest_components(leftover_edge_ids(construct(5)), 5) == (True, 2)
    assert forest_components(construct(3).tree_edge_ids(1), 3) == (True, 1)
    assert forest_components([], 3) == (True, 0)
    # a matching of size m is a forest with m components
    leftover = leftover_edge_ids(construct(8))
    assert forest_components(leftover, 8) == (True, 4)
    # 4-cycle is not a forest
    assert forest_components([0, 1, 2, 3], 2) == (False, 1)


@pytest.mark.parametrize("n", range(1, 13))
def test_constructed_decompositions_verify(n):
    assert verify_decomposition(construct(n)).overall


def test_corrupted_label_is_detected():
    dec = construct(4)
    labels = dec.labels.copy()
    moved = dec.tree_edge_ids(1)[0]
    labels[moved] = 0  # move a tree edge to the leftover
    report = verify_decomposition(Decomposition(n=4, labels=labels))
    assert not report.overall
    assert report.trees[0].edge_count == 14
    assert not report.trees[0].size_ok
    assert report.leftover.size == 3
    assert not report.leftover.ok


def test_structural_errors_are_distinct():
    dec = construct(4)
    bad = Decomposition.__new__(Decomposition)
    object.__setattr__(bad, "n", 4)
    object.__setattr__(bad, "labels", dec.labels[:-1])
    with pytest.raises(MalformedDecompositionError):
        verify_decomposition(bad)
    labels = dec.labels.copy()
    labels[0] = 3  # beyond k
    object.__setattr__(bad, "labels", labels)
    with pytest.raises(MalformedDecompositionError):
        verify_decomposition(bad)
    # A label array that is not uint8 is refused, not read: the bit planes
    # would take a tree-3 edge labelled -5 for label 3 and pass Q_6, and a
    # float array would fail inside numpy with a TypeError.
    signed = construct(6).labels.astype(np.int64)
    signed[np.flatnonzero(signed == 3)[0]] = -5
    for labels in (signed, construct(6).labels.astype(np.float64)):
        bare = types.SimpleNamespace(n=6, labels=labels)
        for check in (verify_decomposition, reference_report):
            with pytest.raises(MalformedDecompositionError):
                check(bare)


@pytest.mark.parametrize("n", range(1, 11))
def test_verify_reads_only_the_dimension_and_the_labels(n):
    # k, the leftover's shape and the report's kind all follow from n.
    dec = construct(n)
    bare = types.SimpleNamespace(n=n, labels=dec.labels)
    for check in (verify_decomposition, reference_report):
        assert check(bare).to_dict() == check(dec).to_dict()
        assert check(bare).to_text() == check(dec).to_text()


def test_report_rendering():
    report = verify_decomposition(construct(5))
    text = report.to_text()
    assert "PASS" in text and "Q_5" in text
    doc = report.to_dict()
    assert doc["overall"] and doc["n"] == 5 and len(doc["trees"]) == 2
    assert doc["leftover"]["components"] == 2
    for n in (5, 6):
        doc = verify_decomposition(construct(n)).to_dict()
        assert list(doc) == ["n", "k", "kind", "partition_ok", "trees", "leftover", "overall"]
        assert isinstance(doc["trees"], list)
        assert list(doc["trees"][0]) == [
            "label", "edge_count", "size_ok", "connected", "incident_to_all", "ok"
        ]
        assert list(doc["leftover"]) == [
            "size", "expected_size", "is_matching", "is_forest",
            "components", "expected_components", "ok",
        ]


@pytest.mark.parametrize("n", [7, 8])
def test_mutation_soundness_sampled(n):
    dec = construct(n)
    rng = np.random.default_rng(n)
    for eid in rng.choice(num_edges(n), size=60, replace=False).tolist():
        current = int(dec.labels[eid])
        for new in range(dec.k + 1):
            if new == current:
                continue
            labels = dec.labels.copy()
            labels[eid] = new
            mutated = Decomposition(n=n, labels=labels)
            assert not verify_decomposition(mutated).overall


def test_checker_does_not_use_the_constructor():
    mods = {
        value.__name__
        for value in vars(cubetrees.verify).values()
        if isinstance(value, types.ModuleType)
    }
    assert "cubetrees.construct" not in mods
    funcs = {
        getattr(value, "__module__", None)
        for value in vars(cubetrees.verify).values()
        if callable(value)
    }
    assert "cubetrees.construct" not in funcs


# The package __init__ imports construct too, so only the source can show
# that the checker never reaches it.
BUILDER_MODULES = {"construct", "files", "broadcast"}


def _builder_imports(source, modules=BUILDER_MODULES):
    """Imports of construct, files or broadcast (or of the package modules
    given) outside `if TYPE_CHECKING:`."""
    found = []

    def visit(node):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            for child in node.orelse:
                visit(child)
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            names = []
        for name in names:
            parts = name.split(".")
            if parts[0] == "cubetrees":
                parts = parts[1:]
            if parts and parts[0] in modules:
                found.append(name)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_checker_source_imports_no_builder_module():
    # verify imports only walk and hypercube from the package, walk only
    # hypercube, and hypercube nothing, so no import chain from the checker
    # reaches a builder module.
    package = {path.stem for path in Path(cubetrees.verify.__file__).parent.glob("*.py")}
    assert BUILDER_MODULES < package
    for module, allowed in [("verify", {"walk", "hypercube"}), ("walk", {"hypercube"}), ("hypercube", set())]:
        source = Path(importlib.import_module(f"cubetrees.{module}").__file__).read_text()
        assert _builder_imports(source, package - allowed) == []
    # the scan itself sees every import form it has to rule out
    assert _builder_imports("from .construct import Decomposition")
    assert _builder_imports("from . import files")
    assert _builder_imports("def f():\n    import cubetrees.broadcast")
    assert _builder_imports("if TYPE_CHECKING:\n    pass\nelse:\n    from .files import x")
    assert not _builder_imports("if TYPE_CHECKING:\n    from .construct import Decomposition")
    assert not _builder_imports("from .hypercube import num_edges")


def _hypercube_names(module):
    """Names module's source imports from cubetrees.hypercube; "*" for the module itself."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            if source in (".hypercube", "cubetrees.hypercube"):
                names.update(alias.name for alias in node.names)
            elif source in (".", "cubetrees"):
                names.update("*" for alias in node.names if alias.name == "hypercube")
        elif isinstance(node, ast.Import):
            names.update("*" for alias in node.names if alias.name == "cubetrees.hypercube")
    return names


def test_builder_and_checker_share_only_the_cube_counts():
    # The checker decodes its own edges: of the cube model, the builder and
    # the checker (verify and the walk it certifies trees with) share only
    # the vertex and edge counts.
    builder = _hypercube_names(importlib.import_module("cubetrees.construct"))
    checker = _hypercube_names(cubetrees.verify) | _hypercube_names(cubetrees.walk)
    assert "*" not in builder | checker  # a whole-module import shares every name
    assert builder & checker <= {"num_edges", "num_vertices"}


def dfs_forest_oracle(edge_pairs):
    """Plain adjacency DFS: (acyclic?, edge-touched component count)."""
    adjacency = {}
    for u, v in edge_pairs:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    seen = set()
    comps = 0
    for start in adjacency:
        if start in seen:
            continue
        comps += 1
        seen.add(start)
        stack = [start]
        while stack:
            node = stack.pop()
            for nxt in adjacency[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    total_edges = sum(len(v) for v in adjacency.values()) // 2
    acyclic = total_edges == len(seen) - comps
    return acyclic, comps


@settings(max_examples=60)
@given(st.sets(st.integers(0, num_edges(4) - 1), max_size=20))
def test_forest_components_matches_dfs_oracle(id_set):
    ids = sorted(id_set)
    u, v = edge_endpoints(np.array(ids, dtype=np.int64), 4)
    expected = dfs_forest_oracle(list(zip(u.tolist(), v.tolist())))
    assert forest_components(ids, 4) == expected


@settings(max_examples=60)
@given(st.sets(st.integers(0, num_edges(4) - 1), max_size=12))
def test_matching_matches_endpoint_count_oracle(id_set):
    ids = sorted(id_set)
    u, v = edge_endpoints(np.array(ids, dtype=np.int64), 4)
    ends = u.tolist() + v.tolist()
    assert is_matching(ids, 4) == (len(set(ends)) == len(ends))


# verify walks every tree label: a walk on cyclic or random labels that never
# ends fails its test after this many seconds instead of hanging the suite.
SEARCH_SECONDS = 60


def assert_same_report(dec):
    with deadline(SEARCH_SECONDS):
        got = verify_decomposition(dec)
    want = reference_report(dec)
    assert json.loads(json.dumps(got.to_dict())) == want.to_dict()  # plain Python values only
    assert got.to_text() == want.to_text()
    return got


def random_labels(n, seed, skew):
    # skew > 0 makes one label dominate, so some trees come out connected
    # or cyclic instead of always scattered.
    k = n // 2
    rng = np.random.default_rng(seed)
    weights = rng.random(k + 1) ** (4 * skew)
    labels = rng.choice(k + 1, size=num_edges(n), p=weights / weights.sum()).astype(np.uint8)
    return Decomposition(n=n, labels=labels)


def single_mutation(data):
    n = data.draw(st.integers(2, 10))  # Q_1 has k = 0: no other label to move to
    dec = construct(n)
    eid = data.draw(st.integers(0, num_edges(n) - 1))
    new = data.draw(st.integers(0, dec.k).filter(lambda j: j != dec.labels[eid]))
    labels = dec.labels.copy()
    labels[eid] = new
    return Decomposition(n=n, labels=labels)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_random_labels_match_union_find_reference(n, seed, skew):
    assert_same_report(random_labels(n, seed, skew))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_single_mutations_match_union_find_reference(data):
    assert not assert_same_report(single_mutation(data)).overall


@pytest.mark.parametrize("n", range(13, 17))
def test_larger_cubes_match_union_find_reference(n):
    # the sizes that hooked their labels in groups before every tree was walked
    for seed in range(3):
        assert_same_report(random_labels(n, seed, seed))
    dec = construct(n)
    rng = np.random.default_rng(n)
    for _ in range(3):
        labels = dec.labels.copy()
        eid = int(rng.integers(num_edges(n)))
        labels[eid] = (labels[eid] + int(rng.integers(1, dec.k + 1))) % (dec.k + 1)
        assert not assert_same_report(Decomposition(n=n, labels=labels)).overall


# Trees per walk to monkeypatch in: one, two, and 13, which holds all k <= 12
# trees of any cube up to Q_24.
GROUP_SIZES = (1, 2, 13)


def labels_per_group(mp, n, size):
    """Make verify walk Q_n's tree labels in groups of `size` (fewer in the
    last), small cubes included."""
    itemsize = np.min_scalar_type((1 << n) - 1).itemsize
    mp.setattr(cubetrees.walk, "_DENSE_MAX_VERTICES", 0)
    mp.setattr(cubetrees.walk, "_STACK_BYTES", size * itemsize << n)


@pytest.mark.parametrize("size", GROUP_SIZES)
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_random_labels_match_union_find_reference_in_groups(size, n, seed, skew):
    with pytest.MonkeyPatch.context() as mp:
        labels_per_group(mp, n, size)
        assert_same_report(random_labels(n, seed, skew))


@pytest.mark.parametrize("size", GROUP_SIZES)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_single_mutations_match_union_find_reference_in_groups(size, data):
    dec = single_mutation(data)
    with pytest.MonkeyPatch.context() as mp:
        labels_per_group(mp, dec.n, size)
        assert not assert_same_report(dec).overall


@pytest.mark.parametrize("n", [15, 16, 17])
def test_an_even_leftover_alone_is_counted_not_hooked(monkeypatch, n):
    # the even leftover's k edges are never hooked, and no tree that its
    # walk certifies is; the odd leftover (2^(n-1) + k edges) is hooked
    # over all 2^n vertices
    spaces, roots = [], cubetrees.verify._roots

    def recorded(lower, upper, vertices):
        spaces.append(vertices)
        return roots(lower, upper, vertices)

    monkeypatch.setattr(cubetrees.verify, "_roots", recorded)
    monkeypatch.setattr(cubetrees.walk, "_usable_cpus", lambda: 1)
    assert assert_same_report(construct(n)).overall
    assert spaces == [1 << n] * (n % 2)


def walk_groups(n):
    """The groups of tree labels verify walks together on Q_n (_stacks)."""
    planes = np.empty((0, 1 << n), np.min_scalar_type((1 << n) - 1))  # no rows: sizes only
    return _stacks(range(1, n // 2 + 1), planes)


def test_group_plan():
    """Walks cover tree labels 1..k once, in order, with stacked indices that fit uint32."""
    bound = cubetrees.walk._STACK_BYTES
    for n in range(1, 25):
        k = n // 2
        groups = walk_groups(n)
        assert [j for trees in groups for j in trees] == list(range(1, k + 1))
        itemsize = np.min_scalar_type((1 << n) - 1).itemsize
        for trees in groups:
            assert len(trees) == 1 or len(trees) * itemsize << n <= bound
            assert len(trees) << n <= 1 << 32
        if n >= 17:
            assert all(len(trees) == 1 for trees in groups)
        if 1 < n <= 6:  # the exhaustive single-mutation rejection walks one group
            assert groups == [range(1, k + 1)]


def label_check_threads(mp):
    """Take the walk's two-thread path at every size, the planes filled in
    blocks of 8 vertices; return the idents of the threads that run a task:
    the leftover's check (_check_labels of label 0), then one search of a
    group of trees each (walk._search_group)."""
    idents = []

    def recorded(check):
        def run(*args):
            idents.append(threading.get_ident())
            return check(*args)

        return run

    mp.setattr(cubetrees.walk, "_DENSE_MAX_VERTICES", 0)
    mp.setattr(cubetrees.walk, "_THREAD_MIN_VERTICES", 1)
    mp.setattr(cubetrees.walk, "_BLOCK_VERTICES", 8)
    mp.setattr(cubetrees.walk, "_usable_cpus", lambda: 2)
    for module, name in ((cubetrees.verify, "_check_labels"), (cubetrees.walk, "_search_group")):
        mp.setattr(module, name, recorded(getattr(module, name)))
    return idents


def assert_same_report_on_two_threads(dec, size=1):
    with pytest.MonkeyPatch.context() as mp:
        idents = label_check_threads(mp)
        labels_per_group(mp, dec.n, size)
        tasks = 1 + len(walk_groups(dec.n))
        report = assert_same_report(dec)
    # with two or more walks the helper takes the leftover and every second
    # task after it, the calling thread the others; otherwise no helper runs
    here = threading.get_ident()
    helper = (tasks + 1) // 2 if tasks >= 3 else 0
    assert len(idents) - idents.count(here) == helper
    assert idents.count(here) == tasks - helper
    return report


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3), st.sampled_from(GROUP_SIZES))
def test_random_labels_match_union_find_reference_on_two_threads(n, seed, skew, size):
    assert_same_report_on_two_threads(random_labels(n, seed, skew), size)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from(GROUP_SIZES))
def test_single_mutations_match_union_find_reference_on_two_threads(data, size):
    assert not assert_same_report_on_two_threads(single_mutation(data), size).overall


def assert_same_report_through_the_walk(dec):
    """assert_same_report with one tree label per walk; each walk must
    certify exactly the labels that are spanning trees."""
    certified, search = [], cubetrees.walk._search

    def recorded(marks, n, source, order=None):
        depths, reach = search(marks, n, source, order)
        if order is None:  # a walk, not the marked search of a tree it cut
            certified.append(depths[0] is not None and reach[0] == (1 << n) - 1)
        return depths, reach

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubetrees.walk, "_search", recorded)
        labels_per_group(mp, dec.n, 1)
        report = assert_same_report(dec)
    assert certified == [tree.ok for tree in report.trees]
    return report


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_random_labels_match_union_find_reference_through_the_walk(n, seed, skew):
    assert_same_report_through_the_walk(random_labels(n, seed, skew))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_single_mutations_match_union_find_reference_through_the_walk(data):
    assert not assert_same_report_through_the_walk(single_mutation(data)).overall


@pytest.mark.parametrize("n", range(1, 7))
def test_every_single_mutation_is_rejected_through_the_walk(n):
    dec = construct(n)
    assert assert_same_report_through_the_walk(dec).overall
    for eid in range(num_edges(n)):
        for new in range(dec.k + 1):
            if new != dec.labels[eid]:
                labels = dec.labels.copy()
                labels[eid] = new
                mutated = Decomposition(n=n, labels=labels)
                assert not assert_same_report_through_the_walk(mutated).overall


@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_cycles_stop_the_walk(n):
    # Every edge in tree 1 (the leftover and trees 2..k hold none), then the
    # Gray-code Hamiltonian cycle in tree 1: a walk that never steps back
    # goes round either for ever unless its limit stops it.
    labels = np.ones(num_edges(n), dtype=np.uint8)
    assert not assert_same_report_through_the_walk(Decomposition(n=n, labels=labels)).overall
    labels[:] = 0
    labels[gray_code_path(n)] = 1
    labels[edge_id(Edge(0, n - 1), n)] = 1  # the edge 0 - 2^(n-1) closes the path
    tree = assert_same_report_through_the_walk(Decomposition(n=n, labels=labels)).trees[0]
    assert (tree.edge_count, tree.connected, tree.size_ok) == (1 << n, True, False)


def hooked_labels(mp):
    """The label of each _check_labels call that hooks (reaches _roots)."""
    hooked, checking, check, roots = [], [], cubetrees.verify._check_labels, cubetrees.verify._roots

    def recorded_check(labels, label, n):
        checking[:] = [label]
        return check(labels, label, n)

    def recorded_roots(lower, upper, vertices):
        hooked.append(checking[0])
        return roots(lower, upper, vertices)

    mp.setattr(cubetrees.verify, "_check_labels", recorded_check)
    mp.setattr(cubetrees.verify, "_roots", recorded_roots)
    return hooked


def test_only_labels_the_walk_cannot_certify_are_hooked(monkeypatch):
    hooked = hooked_labels(monkeypatch)
    for n in (11, 12):
        odd = [0] * (n % 2)  # the odd leftover is always hooked
        dec = construct(n)
        hooked.clear()
        assert verify_decomposition(dec).overall
        assert hooked == odd
        # one edge of tree 1 moved to tree 2: tree 1 falls short and is only
        # counted, tree 2 holds a cycle and gets a marked search, not hooking;
        # then one leftover edge moved to tree 3
        for old, new in [(1, 2), (0, 3)]:
            labels = dec.labels.copy()
            labels[np.flatnonzero(labels == old)[0]] = new
            mutated = Decomposition(n=n, labels=labels)
            hooked.clear()
            assert not assert_same_report(mutated).overall
            assert sorted(hooked) == odd


def test_planes_filled_on_two_threads_give_the_reference_masks(monkeypatch):
    # four blocks of 2^7 vertices: each is filled once, the helper fills the
    # even-numbered blocks, this thread the others, and every label's mask
    # taken from the planes equals the slow per-value build
    n, size, fills, masks = 9, 1 << 7, [], []
    fill = cubetrees.walk.bit_planes

    def recorded_fill(labels, n, planes, vertices):
        fills.append((vertices.start // size, threading.get_ident()))
        assert len(vertices) == size and vertices.start % size == 0
        return fill(labels, n, planes, vertices)

    label_check_threads(monkeypatch)
    check = cubetrees.walk._search_group

    def recorded_check(planes, trees, n, root):
        masks.append(plane_masks(planes, range(n // 2 + 1), n))
        return check(planes, trees, n, root)

    labels_per_group(monkeypatch, n, 1)
    monkeypatch.setattr(cubetrees.walk, "_BLOCK_VERTICES", size)
    monkeypatch.setattr(cubetrees.walk, "bit_planes", recorded_fill)
    monkeypatch.setattr(cubetrees.walk, "_search_group", recorded_check)
    for seed in range(4):
        dec = random_labels(n, seed, seed % 4)
        fills.clear()
        masks.clear()
        assert_same_report(dec)
        by_block = dict(fills)  # the block each call fills -> its thread
        here = threading.get_ident()
        assert len(fills) == len(by_block) == (1 << n) // size >= 4
        assert all((by_block[block] == here) == (block % 2 == 1) for block in by_block)
        assert by_block[1] == here != by_block[0]
        want = reference_edge_masks(dec.labels, range(dec.k + 1), n)
        assert len(masks) == dec.k
        assert all(np.array_equal(got, want) for got in masks)


def refuse(*args, **kwargs):
    raise AssertionError("an edge set was checked outside _check_labels and the tree searches")


@pytest.mark.parametrize(
    "check",
    [assert_same_report, assert_same_report_on_two_threads, assert_same_report_through_the_walk],
)
def test_every_edge_set_is_checked_by_one_routine(monkeypatch, check):
    for name in ("is_matching", "forest_components", "edge_endpoints"):
        monkeypatch.setattr(cubetrees.verify, name, refuse)
    for n in range(1, 11):
        dec = construct(n)
        assert check(dec).overall
        if dec.k == 0:  # Q_1: no tree to move the leftover edge into
            continue
        labels = dec.labels.copy()
        labels[np.flatnonzero(labels == 0)[0]] = 1  # one leftover edge joins tree 1
        assert not check(Decomposition(n=n, labels=labels)).overall


def test_a_helper_thread_failure_is_raised_on_the_calling_thread(monkeypatch, tmp_path, capsys):
    label_check_threads(monkeypatch)
    labels_per_group(monkeypatch, 7, 1)  # four tasks, so the helper hooks the leftover and walks tree 2
    check = cubetrees.verify._check_labels

    def exhausted_off_the_main_thread(labels, label, n):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError
        return check(labels, label, n)

    monkeypatch.setattr(cubetrees.verify, "_check_labels", exhausted_off_the_main_thread)
    dec = construct(7)
    with pytest.raises(MemoryError):
        verify_decomposition(dec)
    path = tmp_path / "q7.dec"
    path.write_bytes(decomposition_to_bytes(dec))
    assert cubetrees.cli.main(["verify", str(path)]) == cubetrees.cli.EXIT_CAP
    err = capsys.readouterr().err
    assert "error: out of memory" in err and "Traceback" not in err


def test_no_helper_thread_for_small_cubes_one_tree_or_one_cpu(monkeypatch):
    def no_helper(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    crossover = cubetrees.walk._THREAD_MIN_VERTICES
    idents = label_check_threads(monkeypatch)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_helper)
    monkeypatch.setattr(cubetrees.walk, "_THREAD_MIN_VERTICES", crossover)
    labels_per_group(monkeypatch, 16, 1)
    assert_same_report(construct(16))  # 2^16 vertices: below the crossover
    assert len(idents) == 9  # the leftover, then trees 1..8 one per walk
    monkeypatch.setattr(cubetrees.walk, "_THREAD_MIN_VERTICES", 1)
    for n in (2, 3):  # k = 1: the leftover and one walk
        assert_same_report(construct(n))
    assert len(idents) == 9 + 2 + 2
    monkeypatch.setattr(cubetrees.walk, "_usable_cpus", lambda: 1)
    labels_per_group(monkeypatch, 8, 1)
    assert_same_report(construct(8))
    assert len(idents) == 9 + 2 + 2 + 5
    assert set(idents) == {threading.get_ident()}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_edge_sets_match_union_find_reference(data):
    n = data.draw(st.integers(1, 10))
    total = num_edges(n)
    if data.draw(st.booleans()) and n > 1:
        # near a spanning tree: a constructed tree with a few ids swapped
        ids = set(construct(n).tree_edge_ids(data.draw(st.integers(1, n // 2))).tolist())
        ids -= data.draw(st.sets(st.sampled_from(sorted(ids)), max_size=3))
        ids |= data.draw(st.sets(st.integers(0, total - 1), max_size=3))
    else:
        ids = data.draw(st.sets(st.integers(0, total - 1), max_size=min(total, 2 << n)))
    ids = sorted(ids)
    assert spans_the_cube(ids, n) == reference_is_spanning_tree(ids, n)
    assert forest_components(ids, n) == reference_forest_components(ids, n)


def drawn_edge_set(data, n):
    """Edge ids of a perfect matching along one dimension, a random
    sub-matching or a random set, with a few ids repeated."""
    half, total = 1 << (n - 1), num_edges(n)
    kind = data.draw(st.sampled_from(["perfect", "sub-matching", "any"]))
    if kind == "perfect":
        d = data.draw(st.integers(0, n - 1))
        ids = list(range(d * half, (d + 1) * half))
    elif kind == "sub-matching":  # random edges, each kept if both its ends are free
        u, v = edge_endpoints(np.arange(total), n)
        order = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(total)
        used, ids = set(), []
        for eid in order[: data.draw(st.integers(0, total))].tolist():
            if u[eid] not in used and v[eid] not in used:
                used.update((u[eid], v[eid]))
                ids.append(eid)
    else:
        ids = data.draw(st.lists(st.integers(0, total - 1), max_size=min(total, 2 << n)))
    if ids:
        ids += data.draw(st.lists(st.sampled_from(ids), max_size=3))
    return ids


def never_hooked(lower, upper, vertices):
    raise AssertionError("a matching was hooked")


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_a_matching_is_counted_not_hooked(data):
    # edges that touch twice as many vertices are a matching, one component
    # per distinct edge; only other sets reach _roots
    n = data.draw(st.integers(1, 10))
    ids = drawn_edge_set(data, n)
    with pytest.MonkeyPatch.context() as mp:
        if reference_is_matching(sorted(set(ids)), n):
            mp.setattr(cubetrees.verify, "_roots", never_hooked)
        assert forest_components(ids, n) == reference_forest_components(ids, n)


def test_repeated_edge_ids_count_as_a_cycle():
    tree = construct(4).tree_edge_ids(1).tolist()
    ids = tree[:-1] + tree[:1]
    assert forest_components(ids, 4) == reference_forest_components(ids, 4)
    assert forest_components(ids, 4)[0] is False


def test_out_of_range_edge_ids_are_rejected():
    for bad in ([-1], [num_edges(3)]):
        with pytest.raises(MalformedEdgeError):
            forest_components(bad, 3)
        with pytest.raises(MalformedEdgeError):
            is_matching(bad, 3)


@pytest.mark.parametrize("n", [3, 7, 11])
def test_leftover_perfect_matching_along_dimension_0(tmp_path, n):
    """Odd file whose leftover is the whole dimension-0 block: 2^(n-1) components."""
    k = n // 2
    half = 1 << (n - 1)
    labels = np.zeros(num_edges(n), dtype=np.uint8)
    labels[half:] = 1 + np.arange(num_edges(n) - half) % k
    path = tmp_path / f"q{n}.dec"
    path.write_bytes(decomposition_to_bytes(Decomposition(n=n, labels=labels)))
    dec = decomposition_from_bytes(path.read_bytes())
    report = assert_same_report(dec)
    assert report.leftover.components == half
    assert report.leftover.is_forest is True
    assert forest_components(np.arange(half), n) == (True, half)


@pytest.mark.parametrize("n", [3, 7, 11])
def test_all_zero_labels_leave_the_whole_cube(n):
    """Every edge in the leftover: one component, full of cycles."""
    dec = Decomposition(n=n, labels=np.zeros(num_edges(n), dtype=np.uint8))
    report = assert_same_report(dec)
    assert report.leftover.components == 1
    assert report.leftover.is_forest is False
    assert not any(t.connected or t.incident_to_all for t in report.trees)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3), st.booleans(), st.data())
def test_edge_ends_match_the_edge_id_decode(n, seed, skew, all_equal, data):
    labels = random_labels(n, seed, skew).labels
    if all_equal:
        labels[:] = seed % (n // 2 + 1)
    label = data.draw(st.integers(0, n // 2 + 1))  # label k + 1 has no edge
    lower, upper = cubetrees.verify._edge_ends(labels, label, n)
    assert lower.dtype == upper.dtype == np.uint32
    u, v = edge_endpoints(np.flatnonzero(labels == label), n)
    assert sorted(zip(lower.tolist(), upper.tolist())) == sorted(zip(u.tolist(), v.tolist()))


def chain_ends(lower, upper, vertices):
    """Each vertex's end of chain after every upper end points at its smallest
    lower neighbour, followed one pointer at a time."""
    parent = list(range(vertices))
    for low, up in zip(lower.tolist(), upper.tolist()):
        parent[up] = min(parent[up], low)
    ends = []
    for x in range(vertices):
        while parent[x] != x:
            x = parent[x]
        ends.append(x)
    return ends


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.integers(0, 3), st.data())
def test_first_round_jumps_every_chain_to_its_end(n, seed, skew, data):
    # jumped in blocks of any power of two vertices, the whole cube included
    labels = random_labels(n, seed, skew).labels
    lower, upper = cubetrees.verify._edge_ends(labels, data.draw(st.integers(0, n // 2)), n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cubetrees.verify, "_BLOCK_VERTICES", 1 << data.draw(st.integers(0, n + 1)))
        root = cubetrees.verify._first_round(lower, upper, 1 << n)
    assert root.dtype == np.uint32
    assert root.tolist() == chain_ends(lower, upper, 1 << n)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_one_label_on_every_edge_spans_the_cube_with_cycles(n):
    """Every edge in tree 1 (Q_1 has no tree: its one edge is the leftover)."""
    k = n // 2
    j = min(k, 1)
    labels = np.full(num_edges(n), j, dtype=np.uint8)
    dec = Decomposition(n=n, labels=labels)
    assert cubetrees.verify._check_labels(labels, j, n) == (num_edges(n), 1 << n, 1)
    report = assert_same_report(dec)
    if k:
        tree = report.trees[0]
        assert tree.connected and tree.incident_to_all and not tree.size_ok
    else:
        assert report.leftover.components == 1 and report.overall


@pytest.mark.parametrize("n", [2, 5, 8])
def test_a_label_that_misses_one_vertex_is_not_touched_everywhere(n):
    """Tree 1 holds every edge away from vertex 0: two components over all
    vertices, one of them untouched."""
    labels = np.ones(num_edges(n), dtype=np.uint8)
    labels[[edge_id(Edge(0, d), n) for d in range(n)]] = 0
    dec = Decomposition(n=n, labels=labels)
    assert cubetrees.verify._check_labels(labels, 1, n) == (num_edges(n) - n, (1 << n) - 1, 1)
    tree = assert_same_report(dec).trees[0]
    assert not tree.connected and not tree.incident_to_all


def test_many_cyclic_components_are_counted_at_once():
    # 2^(n-2) disjoint 4-cycles (dimensions 0 and 1), all merged in one pass.
    n = 10
    ids = np.arange(1 << n)  # the dimension-0 and dimension-1 blocks
    assert forest_components(ids, n) == reference_forest_components(ids, n) == (False, 1 << (n - 2))


def gray_code_path(n):
    """Edge ids of the Hamiltonian path 0, 1, 3, 2, 6, ... through Q_n."""
    step = np.arange(1, 1 << n, dtype=np.int64)
    d = np.log2(step & -step).astype(np.int64)  # the bit flipped at each step
    before = (step - 1) ^ ((step - 1) >> 1)
    return d * (1 << (n - 1)) + squeeze_bit(before & ~(1 << d), d)


def best_of_three_each(check, reference, *args):
    """(check's result, its best time, reference's result, its best time).

    The two calls alternate, three times each, so a load spike on the
    machine slows both sides instead of only one.
    """
    results, best = [None, None], [float("inf"), float("inf")]
    for _ in range(3):
        for side, call in enumerate((check, reference)):
            start = time.perf_counter()
            results[side] = call(*args)
            best[side] = min(best[side], time.perf_counter() - start)
    return results[0], best[0], results[1], best[1]


@pytest.mark.parametrize("check, reference", [(forest_components, reference_forest_components)])
def test_hamiltonian_path_costs_no_more_than_the_reference(check, reference):
    """A spanning tree of depth 2^n - 1: the check must not slow down with depth."""
    n = 16
    ids = gray_code_path(n)
    assert np.unique(ids).size == ids.size == (1 << n) - 1
    got, fast, want, slow = best_of_three_each(check, reference, ids, n)
    assert got == want
    assert got == (True, 1)
    assert fast <= slow
