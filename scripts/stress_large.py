#!/usr/bin/env python3
"""Time and memory profile of construction, full verification, the
broadcast depths from root 0 and one edge-list export at desk scale (n = 20
is ~10.5M edges).

Besides the peak RSS it prints the minor page faults taken during
verification and during the broadcast depths (the ru_minflt deltas), which
count how much fresh memory their temporaries touch.  The peak RSS is read
before the export; the export's text is discarded, and the peak RSS is read
again after it.  The last line repeats the figures as one JSON object: n,
construct_s, verify_s, broadcast_s, peak_rss_mb, verify_minflt,
broadcast_minflt, export_s and export_peak_rss_mb.  The export fields are
null from n = 24 up, whose ~3.7 GB of text is held twice at its peak."""

import argparse
import json
import resource
import time

from cubetrees.broadcast import tree_depths
from cubetrees.construct import construct
from cubetrees.files import export_decomposition
from cubetrees.verify import verify_decomposition

# The smallest n whose edge-list export is not run: its text, held twice,
# does not fit a desk machine's memory.
EXPORT_CAP = 24


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
    export_s = export_peak_mb = None
    if args.dimension < EXPORT_CAP:
        export_start = time.perf_counter()
        export_decomposition(dec, "edgelist")
        export_s = time.perf_counter() - export_start
        export_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"n={dec.n}: {dec.k} trees over {dec.num_edges} edges")
    print(f"construct: {built - start:.2f}s")
    print(f"verify:    {done - built:.2f}s ({'PASS' if report.overall else 'FAIL'})")
    print(f"broadcast: {searched - done:.2f}s (depths from root 0: {depths}, minor page faults: {broadcast_faults})")
    print(f"peak RSS:  {peak_mb:.0f} MB, verify minor page faults: {faults}")
    if export_s is None:
        print(f"export:    skipped from n = {EXPORT_CAP} up")
    else:
        print(f"export:    {export_s:.2f}s (edge list), peak RSS after it: {export_peak_mb:.0f} MB")
    result = {
        "n": dec.n,
        "construct_s": built - start,
        "verify_s": done - built,
        "broadcast_s": searched - done,
        "peak_rss_mb": peak_mb,
        "verify_minflt": faults,
        "broadcast_minflt": broadcast_faults,
        "export_s": export_s,
        "export_peak_rss_mb": export_peak_mb,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
