#!/usr/bin/env python3
"""Construct and verify decompositions across a dimension range, printing one
table row per cube with the closed-form invariants alongside the measured
structure.

A row PASSes when the construction verifies and a copy with one edge's label
changed is rejected.  Three timings follow, each the median of 15 in-process
calls in milliseconds: verify of the construction, verify of the changed
copy (a reject), and tree_depths from root 2^n // 3.  The last line is one
JSON object with the three timings summed over the range.
"""

import argparse
import json
import statistics
import time

from cubetrees.bounds import bounds_for
from cubetrees.broadcast import tree_depths
from cubetrees.construct import Decomposition, construct
from cubetrees.verify import verify_decomposition

CALLS = 15


def median_ms(call, *args) -> float:
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--min", type=int, default=1)
    parser.add_argument("--max", type=int, default=14)
    args = parser.parse_args()

    header = (
        f"{'n':>3} {'kind':>4} {'trees':>5} {'edges':>9} {'leftover':>8} "
        f"{'shape':>14} {'arb':>3} {'tau':>3} {'verify':>7} "
        f"{'clean ms':>8} {'reject ms':>9} {'depths ms':>9}"
    )
    print(header)
    print("-" * len(header))
    sums = {"verify_ms": 0.0, "reject_ms": 0.0, "depths_ms": 0.0}
    for n in range(args.min, args.max + 1):
        dec = construct(n)
        report = verify_decomposition(dec)
        labels = dec.labels.copy()
        edge = dec.num_edges // 2
        labels[edge] = (labels[edge] + 1) % (dec.k + 1)  # Q_1 has no other label: its copy is unchanged
        changed = Decomposition(n=n, labels=labels)
        rejected = dec.k == 0 or not verify_decomposition(changed).overall
        times = {
            "verify_ms": median_ms(verify_decomposition, dec),
            "reject_ms": median_ms(verify_decomposition, changed) if dec.k else 0.0,
            "depths_ms": median_ms(tree_depths, dec, (1 << n) // 3),
        }
        for key, ms in times.items():
            sums[key] += ms
        invariants = bounds_for(n)
        lo = report.leftover
        if lo.is_matching is not None:
            shape = "matching"
        else:
            shape = f"forest ({lo.components} comp)"
        print(
            f"{n:>3} {dec.kind:>4} {dec.k:>5} {dec.num_edges:>9} {lo.size:>8} "
            f"{shape:>14} {invariants.arboricity:>3} {invariants.tree_number:>3} "
            f"{'PASS' if report.overall and rejected else 'FAIL':>7} "
            f"{times['verify_ms']:>8.3f} {times['reject_ms']:>9.3f} {times['depths_ms']:>9.3f}"
        )
    print(json.dumps({"min": args.min, "max": args.max, **{key: round(ms, 3) for key, ms in sums.items()}}))


if __name__ == "__main__":
    main()
