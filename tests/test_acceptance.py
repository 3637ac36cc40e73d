"""End-to-end acceptance checks.

Each test covers one acceptance criterion at its stated tolerance (all exact
integer checks) and prints a single pass/fail line; run with -s to see them.
"""

import resource
import time

import numpy as np
import pytest

from cubetrees.bounds import bounds_for
from cubetrees.construct import Decomposition, construct
from cubetrees.files import decomposition_from_bytes, decomposition_to_bytes
from cubetrees.hypercube import num_edges, num_vertices
from cubetrees.oracle import nw_arboricity, packing_upper_bound
from cubetrees.verify import verify_decomposition
from construct_reference import even_extension_tree_sizes
from oracle_reference import hypercube_graph


def _report(cid, name, ok):
    print(f"\n[acceptance {cid}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {cid} ({name}) failed"


def test_criterion_1_even_construction():
    """Even n in {2..16}: n/2 spanning trees plus a leftover matching of size n/2."""
    start = time.perf_counter()
    ok = True
    for n in range(2, 17, 2):
        report = verify_decomposition(construct(n))
        ok &= report.overall
        ok &= len(report.trees) == n // 2
        ok &= all(t.edge_count == 2**n - 1 and t.connected for t in report.trees)
        ok &= bool(report.leftover.is_matching) and report.leftover.size == n // 2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(1, f"even construction through n=16 ({elapsed:.1f}s)", ok)


def test_criterion_2_odd_construction():
    """Odd n in {3..15}: floor(n/2) trees plus a forest leftover with floor(n/2)
    components and 2^(n-1) + floor(n/2) edges."""
    start = time.perf_counter()
    ok = True
    for n in range(3, 16, 2):
        k = n // 2
        report = verify_decomposition(construct(n))
        ok &= report.overall
        ok &= len(report.trees) == k
        ok &= bool(report.leftover.is_forest)
        ok &= report.leftover.components == k
        ok &= report.leftover.size == 2 ** (n - 1) + k
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(2, f"odd construction through n=15 ({elapsed:.1f}s)", ok)


def test_criterion_3_optimality_sandwich():
    """Constructed tree count equals floor(n*2^(n-1)/(2^n-1)) = floor(n/2), n in [2,16]."""
    ok = True
    for n in range(2, 17):
        dec = construct(n)
        floor_density = num_edges(n) // (num_vertices(n) - 1)
        ok &= dec.k == floor_density == n // 2
    _report(3, "tree count meets the density bound exactly, n in [2,16]", ok)


def test_criterion_4_step_size_identities():
    """At every even extension level, the three closed-form tree sizes all equal
    2^(2k+2)-1 and match the constructed tree sizes."""
    ok = True
    for sub_k in range(1, 8):  # levels reaching n = 16
        sizes = even_extension_tree_sizes(sub_k)
        target = 2 ** (2 * sub_k + 2) - 1
        ok &= sizes.joined_trees == target
        ok &= sizes.remainder_tree == target
        ok &= sizes.final_tree == target
        dec = construct(2 * sub_k + 2)
        counts = np.bincount(dec.labels, minlength=dec.k + 1)
        ok &= all(counts[j] == sizes.joined_trees for j in range(1, sub_k))
        ok &= counts[sub_k] == sizes.remainder_tree
        ok &= counts[sub_k + 1] == sizes.final_tree
    _report(4, "extension-step tree size identities, levels 1..7", ok)


def test_criterion_5_oracle_agreement():
    """Brute-force oracles reproduce the closed forms on tiny cubes."""
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        ok &= nw_arboricity(hypercube_graph(n)) == n // 2 + 1 == bounds_for(n).arboricity
    for n in (2, 3):
        ok &= packing_upper_bound(hypercube_graph(n)) == n // 2 == bounds_for(n).tree_packing
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(5, f"oracle agreement on small cubes ({elapsed:.1f}s)", ok)


def test_criterion_6_mutation_soundness():
    """For n <= 6, every single-label mutation is rejected by the verifier."""
    start = time.perf_counter()
    ok = True
    cases = 0
    for n in range(1, 7):
        dec = construct(n)
        for eid in range(num_edges(n)):
            current = int(dec.labels[eid])
            for new in range(dec.k + 1):
                if new == current:
                    continue
                labels = dec.labels.copy()
                labels[eid] = new
                mutated = Decomposition(n=n, labels=labels)
                ok &= not verify_decomposition(mutated).overall
                cases += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(6, f"all {cases} single-label mutations rejected, n<=6 ({elapsed:.1f}s)", ok)


def test_criterion_7_determinism_and_round_trip():
    """Byte-identical reconstruction and exact file round-trips for n <= 12."""
    ok = True
    for n in range(1, 13):
        first = construct(n)
        second = construct(n)
        ok &= first.labels.tobytes() == second.labels.tobytes()
        blob = decomposition_to_bytes(first)
        ok &= blob == decomposition_to_bytes(second)
        back = decomposition_from_bytes(blob)
        ok &= (back.n, back.k, back.kind) == (first.n, first.k, first.kind)
        ok &= np.array_equal(back.labels, first.labels)
    _report(7, "determinism and file round-trip, n <= 12", ok)


@pytest.mark.slow
def test_criterion_8_desk_scale_stress():
    """construct(20) plus full verification in < 120 s and < 2 GB."""
    start = time.perf_counter()
    dec = construct(20)
    report = verify_decomposition(dec)
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = report.overall
    ok &= dec.num_edges == 10_485_760
    ok &= elapsed < 120.0
    ok &= peak_mb < 2048.0
    _report(8, f"n=20 stress ({elapsed:.1f}s, peak {peak_mb:.0f} MB)", ok)


@pytest.mark.slow
def test_desk_scale_stress_n22():
    """construct(22) plus full verification in < 60 s and < 2 GB."""
    start = time.perf_counter()
    dec = construct(22)
    report = verify_decomposition(dec)
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert report.overall
    assert dec.num_edges == 46_137_344
    assert elapsed < 60.0, f"n=22 took {elapsed:.1f}s"
    assert peak_mb < 2048.0, f"peak RSS {peak_mb:.0f} MB"
    print(f"\n[stress] n=22 ({elapsed:.1f}s, peak {peak_mb:.0f} MB)")


@pytest.mark.slow
def test_desk_scale_stress_n24():
    """construct(24), the dimension cap, plus full verification in < 60 s and < 2 GB."""
    start = time.perf_counter()
    dec = construct(24)
    report = verify_decomposition(dec)
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert report.overall
    assert dec.num_edges == 201_326_592
    assert elapsed < 60.0, f"n=24 took {elapsed:.1f}s"
    assert peak_mb < 2048.0, f"peak RSS {peak_mb:.0f} MB"
    print(f"\n[stress] n=24 ({elapsed:.1f}s, peak {peak_mb:.0f} MB)")
