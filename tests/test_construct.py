import dataclasses
import hashlib
import importlib
import json

import numpy as np
import pytest

from cubetrees.construct import (
    EVEN,
    LEFTOVER,
    ODD,
    Decomposition,
    base_q2,
    construct,
)
from cubetrees.hypercube import CapExceededError, edge_endpoints, num_edges
from cubetrees.verify import forest_components, is_matching, verify_decomposition
from construct_reference import (
    EVEN_COPY_BITS,
    ODD_COPY_BITS,
    cross_matching,
    embed_copy,
    even_extension_tree_sizes,
    _leftover_lower_endpoints,
    leftover_edge_ids,
)
from cube_reference import edge_id
from union_find_reference import UnionFind


def test_base_q2():
    dec = base_q2()
    assert dec.n == 2 and dec.k == 1 and dec.kind == EVEN
    assert list(dec.labels) == [1, 1, 0, 1]
    assert dec.labels.size == 4
    tree = dec.tree_edge_ids(1)
    assert tree.size == 3 == 2**2 - 1
    assert forest_components(tree, 2) == (True, 1)
    leftover = leftover_edge_ids(dec)
    assert leftover.size == 1
    assert is_matching(leftover, 2)
    # leftover is the dimension-1 edge at vertex 00
    u, v = edge_endpoints(leftover, 2)
    assert (u[0], v[0]) == (0, 2)


def test_even_recursion_base_is_the_2_cube():
    built = construct(2)
    base = base_q2()
    assert (built.n, built.k, built.kind) == (base.n, base.k, base.kind)
    assert np.array_equal(built.labels, base.labels)


def test_construct_dispatch():
    one = construct(1)
    assert one.k == 0 and one.kind == ODD
    assert leftover_edge_ids(one).size == 1
    assert construct(4).kind == EVEN and construct(4).k == 2
    assert construct(7).kind == ODD and construct(7).k == 3
    with pytest.raises(ValueError):
        construct(0)
    with pytest.raises(CapExceededError):
        construct(25)
    for bad in (True, 2.5, 4.0, "4", None, np.bool_(True)):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            construct(bad)
    # a numpy integer is accepted, and the report it verifies to stays JSON
    dec = construct(np.int64(4))
    assert type(dec.n) is int and np.array_equal(dec.labels, construct(4).labels)
    json.dumps(verify_decomposition(dec).to_dict())


def test_construct_checks_the_dimension_once(monkeypatch):
    # `cubetrees.construct` is shadowed by the function of that name.
    module = importlib.import_module("cubetrees.construct")
    check, calls = module.check_dimension, []
    monkeypatch.setattr(module, "check_dimension", lambda n: calls.append(n) or check(n))
    for n in (1, 2, 7, 8):
        construct(n)
    construct(6)
    assert calls == [1, 2, 7, 8, 6]


def test_q4_tree_and_leftover_sizes():
    dec = construct(4)
    counts = np.bincount(dec.labels, minlength=dec.k + 1)
    assert counts[1] == counts[2] == 15 == 4 * (2**2 - 1) + 3
    assert counts[LEFTOVER] == 2
    assert counts.sum() == 32 == num_edges(4)
    assert is_matching(leftover_edge_ids(dec), 4)


def test_q3_tree_and_leftover_shape():
    dec = construct(3)
    tree = dec.tree_edge_ids(1)
    assert tree.size == 7  # 3 tree edges + 3 unselected cross edges + 1 leftover edge
    assert forest_components(tree, 3) == (True, 1)
    leftover = leftover_edge_ids(dec)
    assert leftover.size == 5 == 2**2 + 1
    assert forest_components(leftover, 3) == (True, 1)


def _component_vertices(edge_ids, n):
    """Map each endpoint to a component representative via union-find."""
    u, v = edge_endpoints(np.asarray(edge_ids), n)
    uf = UnionFind(1 << n)
    for a, b in zip(u.tolist(), v.tolist()):
        uf.union(a, b)
    groups = {}
    for w in set(u.tolist()) | set(v.tolist()):
        groups.setdefault(uf.find(w), set()).add(w)
    return list(groups.values())


def test_odd_leftover_component_structure():
    # The selected cross edge shares an endpoint with its paired leftover
    # edge, so the component holding copy 2's donated tree also holds both.
    for k, n in ((1, 3), (2, 5)):
        dec = construct(2 * k + 1)
        comps = _component_vertices(leftover_edge_ids(dec), n)
        assert len(comps) == k
        big = max(comps, key=len)
        copy2 = {v | 1 << (n - 1) for v in range(1 << (n - 1))}
        assert copy2 <= big  # the donated spanning tree covers all of copy 2
        # plus exactly the cross edge's copy-1 endpoint and its mate along
        # the paired leftover edge
        assert len(big) == len(copy2) + 2
        # all other components are single leftover edges from copy 1
        for comp in comps:
            if comp is not big:
                assert len(comp) == 2 and comp <= set(range(1 << (n - 1)))


def _reference_even_labels(sub, n_out):
    """Assemble one even step edge set by edge set, straight from the
    four-copy description, as an independent oracle for the block-wise path."""
    k = sub.k
    copies = [embed_copy(sub, bits, n_out) for bits in EVEN_COPY_BITS]
    pair12, pair23, pair34, pair14 = (0, 1), (1, 2), (2, 3), (0, 3)
    cross = {
        pair: cross_matching(sub, EVEN_COPY_BITS[a], EVEN_COPY_BITS[b], n_out)
        for pair in (pair12, pair23, pair34, pair14)
        for a, b in [pair]
    }
    labels = np.zeros(num_edges(n_out), dtype=np.uint8)
    for j in range(1, k):
        for c in copies:
            labels[c.trees[j - 1]] = j
        for pair in (pair12, pair23, pair34):
            labels[cross[pair].chosen_ids[j - 1]] = j
    labels[copies[0].trees[k - 1]] = k
    for c in copies[1:]:
        for e in c.independents:
            labels[edge_id(e, n_out)] = k
    for pair in (pair12, pair23, pair34):
        cm = cross[pair]
        labels[np.setdiff1d(cm.all_ids, cm.chosen_ids)] = k
    for c in copies[1:]:
        labels[c.trees[k - 1]] = k + 1
    labels[cross[pair14].all_ids] = k + 1
    labels[cross[pair12].chosen_ids[k - 1]] = k + 1
    labels[cross[pair34].chosen_ids[k - 1]] = k + 1
    # copy 1's independents and the last selected (2,3) edge stay leftover
    return labels


def _reference_odd_labels(sub, n_out):
    k = sub.k
    low, high = (embed_copy(sub, bits, n_out) for bits in ODD_COPY_BITS)
    cm = cross_matching(sub, 0, 1, n_out)
    labels = np.zeros(num_edges(n_out), dtype=np.uint8)
    for j in range(1, k):
        labels[low.trees[j - 1]] = j
        labels[high.trees[j - 1]] = j
        labels[cm.chosen_ids[j - 1]] = j
    labels[low.trees[k - 1]] = k
    labels[np.setdiff1d(cm.all_ids, cm.chosen_ids)] = k
    for e in high.independents:
        labels[edge_id(e, n_out)] = k
    # low's independents, the last selected cross edge, and high's last tree
    # stay leftover
    return labels


@pytest.mark.parametrize("k", range(2, 9))
def test_even_step_matches_reference_assembly(k):
    sub = construct(2 * k - 2)
    expected = _reference_even_labels(sub, 2 * k)
    assert np.array_equal(construct(2 * k).labels, expected)


@pytest.mark.parametrize("k", range(1, 8))
def test_odd_step_matches_reference_assembly(k):
    sub = construct(2 * k)
    expected = _reference_odd_labels(sub, 2 * k + 1)
    assert np.array_equal(construct(2 * k + 1).labels, expected)


def _spans_exactly(edge_ids, vertex_set, n):
    """Edge set is a tree on exactly vertex_set."""
    ids = np.asarray(edge_ids)
    if ids.size != len(vertex_set) - 1:
        return False
    u, v = edge_endpoints(ids, n)
    touched = set(u.tolist()) | set(v.tolist())
    if touched != vertex_set:
        return False
    uf = UnionFind(1 << n)
    merges = sum(uf.union(a, b) for a, b in zip(u.tolist(), v.tolist()))
    return merges == len(vertex_set) - 1


@pytest.mark.parametrize("sub_n,copy_bits,n_out", [
    (2, 0, 4), (2, 1, 4), (2, 3, 4), (2, 2, 4),
    (4, 0, 6), (4, 3, 6),
    (4, 0, 5), (4, 1, 5),
])
def test_embedded_copy_invariants(sub_n, copy_bits, n_out):
    sub = construct(sub_n)
    cd = embed_copy(sub, copy_bits, n_out)
    copy_vertices = {v | copy_bits << sub_n for v in range(1 << sub_n)}
    all_ids = np.concatenate(cd.trees) if cd.trees else np.array([], dtype=np.int64)
    assert np.unique(all_ids).size == all_ids.size  # pairwise edge-disjoint
    for tree in cd.trees:
        assert _spans_exactly(tree, copy_vertices, n_out)
    ind_ids = [edge_id(e, n_out) for e in cd.independents]
    assert is_matching(ind_ids, n_out)
    for e in cd.independents:
        assert {e.u, e.v} <= copy_vertices


@pytest.mark.parametrize("bits_a,bits_b", [(0, 1), (1, 3), (3, 2), (0, 2)])
def test_cross_matching_invariants(bits_a, bits_b):
    sub = construct(4)
    n_out = 6
    cm = cross_matching(sub, bits_a, bits_b, n_out)
    assert cm.all_ids.size == 1 << sub.n
    assert is_matching(cm.all_ids, n_out)
    assert cm.chosen_ids.size == sub.k
    assert set(cm.chosen_ids.tolist()) <= set(cm.all_ids.tolist())
    # each selected cross edge hangs off the numerically smaller endpoint of
    # its paired leftover edge, in both copies
    for j, eid in enumerate(cm.chosen_ids.tolist()):
        fu, fv = (arr[0] for arr in edge_endpoints(np.array([eid]), n_out))
        for bits in (bits_a, bits_b):
            cd = embed_copy(sub, bits, n_out)
            e = cd.independents[j]
            assert min(e.endpoints()) in (fu, fv)


def test_cross_matching_rejects_nonadjacent_copies():
    sub = construct(2)
    with pytest.raises(ValueError):
        cross_matching(sub, 0, 3, 4)


@pytest.mark.parametrize("n", range(1, 11))
def test_labels_partition_all_edges(n):
    dec = construct(n)
    counts = np.bincount(dec.labels, minlength=dec.k + 1)
    assert counts.sum() == num_edges(n)
    assert int(dec.labels.max(initial=0)) <= dec.k
    assert counts.size == dec.k + 1


@pytest.mark.parametrize("n", range(1, 11))
def test_construction_is_deterministic(n):
    assert construct(n).labels.tobytes() == construct(n).labels.tobytes()


# sha256 of construct(n).labels.tobytes().  The test above compares two runs
# of the same code; this table holds the bytes across changes to the builder.
LABEL_SHA256 = {
    1: "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    2: "252c0b6b080fa045acfcd1437f693f3be2be2ac8223ea525d492fa19ab028942",
    3: "ecbde46798f0d934e4e1369a1f9e3ac2843977a0a5e21891de90d2205699d778",
    4: "ed2ce8713220b689450d6059206115613feb68e7601aa97e95b16d6d54bb745e",
    5: "d926aaada056f46325dc2b7a38cfd7a0338fa83cc5a6006b2e55a5b8aa005cf7",
    6: "bfa9c97e7aea38d0eb2317eae1ec77d5e607b367b9acc72cead247910ed12e1f",
    7: "aa996291f89771bfcf5a495d4da2fffc8e927a576b371786e211a3f302516bac",
    8: "fd253ef08c0d2a21c9edfb491c9a7efd2777d4fbc3408307f93fd83d3d44b40b",
    9: "17ecc87b495fd3c3af7b06fab44ded0906b45e4e3ec6044679f1da6932350a03",
    10: "66d88c6b1cc76ef53cace62abcbe2efa7092298990f59a05cabdfddb1b5df904",
    11: "e6b1c25ada9ef3064d534d9461bded34978be9f8ba18834ee34cdd87b62e2806",
    12: "4af2f1621aacbdcbb94206601487822dfa765eb84e2d62e6beacd59a7b8246c0",
    13: "e92c4b26018e79b71c1d790cad1860f8ead0b609ea5f8f2b848f36804c036513",
    14: "2297f62ee87d734f54b045cbf90f78c7e12b2cb8a48c52a1633b2bab2b70dc2f",
    15: "07922b5bf1cd5bd3aae504b6ad5b0ee47d9a177833a2baf9494cb73ff2c757e1",
    16: "1bbefc8609ee24179a346c4b82fffa3a2b8727500d98770a0770631b3b93a623",
    17: "e274dd9c4cca1610825a79da7491a512837d24b8092b08460dbee27fc7d235eb",
    18: "91f5244efb8c04a61d59016666095eb9c4186719008606a9c6622b8d6a04974b",
    19: "5f2c8ddb682580c5078bd8066bfd48ad701566b85c987469be8f6deaa0b8d7a4",
    20: "096570922d8b928eaae11b4e203d2115bd2cd9c81d35211eedd86c2c631b94dc",
}


@pytest.mark.parametrize("n", range(1, 21))
def test_construction_bytes_are_pinned(n):
    assert hashlib.sha256(construct(n).labels.tobytes()).hexdigest() == LABEL_SHA256[n]


@pytest.mark.parametrize("k", range(1, 13))
def test_even_leftover_is_the_explicit_matching(k):
    # Leftover edge i runs along dimension 2i - 1 from (4^i - 4)/3, the
    # vertex with bits 2, 4, ..., 2i - 2 set; the builder states these ends.
    dec = construct(2 * k)
    starts = [(4**i - 4) // 3 for i in range(1, k + 1)]
    assert starts == [sum(1 << b for b in range(2, 2 * i - 1, 2)) for i in range(1, k + 1)]
    assert _leftover_lower_endpoints(dec).tolist() == starts
    dims = leftover_edge_ids(dec) >> (2 * k - 1)
    assert dims.tolist() == [2 * i - 1 for i in range(1, k + 1)]
    module = importlib.import_module("cubetrees.construct")
    assert module._matching_starts(k).tolist() == starts


@pytest.mark.parametrize("n", range(2, 13))
def test_leftover_shape(n):
    dec = construct(n)
    leftover = leftover_edge_ids(dec)
    if n % 2 == 0:
        assert leftover.size == dec.k
        assert is_matching(leftover, n)
    else:
        assert leftover.size == 2 ** (n - 1) + dec.k
        assert forest_components(leftover, n) == (True, dec.k)


@pytest.mark.parametrize("sub_k", range(1, 8))
def test_even_extension_size_identities(sub_k):
    sizes = even_extension_tree_sizes(sub_k)
    target = 2 ** (2 * sub_k + 2) - 1
    assert sizes.joined_trees == sizes.remainder_tree == sizes.final_tree == target


@pytest.mark.parametrize("n", range(2, 13))
def test_tree_count_meets_density_bound_exactly(n):
    dec = construct(n)
    assert dec.k == num_edges(n) // (2**n - 1) == n // 2


def test_decomposition_validation():
    with pytest.raises(ValueError):
        Decomposition(n=2, labels=np.zeros(5, dtype=np.uint8))
    with pytest.raises(ValueError):
        Decomposition(n=2, labels=np.zeros(4, dtype=np.int64))
    # True is not taken as Q_1, nor 0 as a cube with no edge.
    for bad in (2.0, True, np.bool_(True), "2", None):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            Decomposition(n=bad, labels=np.zeros(1, dtype=np.uint8))
    for bad in (0, -1):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            Decomposition(n=bad, labels=np.zeros(1, dtype=np.uint8))
    for bad in ([1, 1, 0, 1], None):
        with pytest.raises(ValueError, match="labels must be a uint8 array"):
            Decomposition(n=2, labels=bad)


def test_decomposition_is_its_dimension_and_labels():
    assert [f.name for f in dataclasses.fields(Decomposition)] == ["n", "labels"]
    for kw in ({"k": 1}, {"kind": EVEN}):
        with pytest.raises(TypeError):
            Decomposition(n=2, labels=np.zeros(4, dtype=np.uint8), **kw)
    # A numpy n is stored as an int: n << (n - 1) would wrap in uint8, and
    # the report of an np.int64 n would not serialise to JSON.
    dec = Decomposition(n=np.uint8(9), labels=construct(9).labels)
    assert type(dec.n) is int and dec.num_edges == 2304
    report = verify_decomposition(Decomposition(n=np.int64(4), labels=construct(4).labels))
    json.dumps(report.to_dict())
