#!/usr/bin/env python3
"""Time and memory profile of construction, full verification and the
broadcast depths from root 0 at desk scale (n = 20 is ~10.5M edges).

Besides the peak RSS it prints the minor page faults taken during
verification and during the broadcast depths (the ru_minflt deltas), which
count how much fresh memory their temporaries touch.  The last line repeats
the figures as one JSON object: n, construct_s, verify_s, broadcast_s,
peak_rss_mb, verify_minflt and broadcast_minflt."""

import argparse
import json
import resource
import time

from cubetrees.broadcast import tree_depths
from cubetrees.construct import construct
from cubetrees.verify import verify_decomposition


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--dimension", type=int, default=20)
    args = parser.parse_args()

    start = time.perf_counter()
    dec = construct(args.dimension)
    built = time.perf_counter()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    report = verify_decomposition(dec)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    done = time.perf_counter()
    broadcast_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    depths = tree_depths(dec, 0)
    broadcast_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - broadcast_faults
    searched = time.perf_counter()

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"n={dec.n}: {dec.k} trees over {dec.num_edges} edges")
    print(f"construct: {built - start:.2f}s")
    print(f"verify:    {done - built:.2f}s ({'PASS' if report.overall else 'FAIL'})")
    print(f"broadcast: {searched - done:.2f}s (depths from root 0: {depths}, minor page faults: {broadcast_faults})")
    print(f"peak RSS:  {peak_mb:.0f} MB, verify minor page faults: {faults}")
    result = {
        "n": dec.n,
        "construct_s": built - start,
        "verify_s": done - built,
        "broadcast_s": searched - done,
        "peak_rss_mb": peak_mb,
        "verify_minflt": faults,
        "broadcast_minflt": broadcast_faults,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
