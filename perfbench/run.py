#!/usr/bin/env python3
"""cubetrees benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory; it needs no build.  With `--trace 0` it reports the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run.
Earlier lines of standard output are for people; the last line is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`.
`--workload all` runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("certify", "broadcast", "cli-sweep")
# Set-up is timed in this many fresh processes, and the median reported.
SETUP_REPEATS = 7
# Importing is interpreter work on a small working set, so set-up is scaled
# by the kernel on the small graph.
SETUP_KERNEL = 1 << 12
# Calibration kernels run between operations, for this share of the time
# of the operation before.
CALIBRATION_SHARE = 0.1
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def use_checkout_source() -> Path:
    """Put this checkout's src/ first on the import path, or exit with code 1."""
    src = ROOT / "src"
    if not (src / "cubetrees" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'cubetrees'}; run from a cubetrees checkout")
    sys.path.insert(0, str(src))
    return src


def make_workload(name: str, workdir: Path, **sizes):
    from workloads import WORKLOADS

    return WORKLOADS[name](workdir, **sizes)


def work_directory(name: str) -> Path:
    path = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_probe(name: str) -> dict[str, float]:
    """Seconds to import the package and build the workload's fixed inputs,
    also scaled by calibration kernels run just before and just after.

    numpy is imported before the clock starts: no change to the package can
    change its import time, and it is the noisiest part of a cold start.
    """
    from calibrate import kernel_median, scaled

    use_checkout_source()
    import numpy  # noqa: F401

    kernel_before = kernel_median(SETUP_KERNEL)
    start = time.perf_counter()
    workdir = work_directory(name)
    try:
        make_workload(name, workdir)
        seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    kernel_s = (kernel_before + kernel_median(SETUP_KERNEL)) / 2
    return {"wall_s": seconds, "setup_s": scaled(seconds, kernel_s, SETUP_KERNEL)}


def setup_seconds(name: str) -> list[dict]:
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(child.stdout.splitlines()[-1]))
    return samples


def measure(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop: run operations until `seconds` have passed, checking each one.

    With a tracer, even-numbered operations run traced and odd-numbered ones
    untraced, so the difference of their medians is the tracing overhead.
    Each untraced operation's time is also scaled by the calibration kernel
    times taken just before and just after it.
    """
    from calibrate import kernel_median, scaled

    rng = random.Random(seed)
    op_s = {True: [], False: []}
    scaled_op_s = []
    named = defaultdict(list)
    attempted = failed = 0
    size = workload.calibration_size
    kernel_before = kernel_median(size)
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        inputs = workload.draw(rng)
        traced = tracer is not None and attempted % 2 == 0
        gc.collect()
        attempted += 1
        began = time.perf_counter()
        try:
            if traced:
                with tracer.recording(attempted - 1):
                    outcome = workload.operation(inputs)
            else:
                outcome = workload.operation(inputs)
            elapsed = time.perf_counter() - began
            kernel_after = kernel_median(size, CALIBRATION_SHARE * elapsed)
            problems = workload.check(outcome)
        except Exception:  # a failed operation is counted, and the loop goes on
            problems = [traceback.format_exc()]
            kernel_after = kernel_median(size)
        else:
            op_s[traced].append(elapsed)
            if not traced:
                scaled_op_s.append(scaled(elapsed, (kernel_before + kernel_after) / 2, size))
            for key, value in workload.step_seconds(outcome, elapsed).items():
                named[key].append(value)
        kernel_before = kernel_after
        if problems:
            failed += 1
            print(f"operation {attempted - 1} failed: " + "; ".join(problems), file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "op_s": op_s,
            "scaled_op_s": scaled_op_s, "named": named}


def report_line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<36} {value:>14.6g} {unit:<8} {note}".rstrip()


def run(name: str, seed: int, seconds: float, trace: bool, **sizes) -> dict:
    """One benchmark run; prints the human-readable lines and returns the result object."""
    from tracing import PER_LAYER_UNITS, Tracer

    setup = [] if trace else setup_seconds(name)
    workdir = work_directory(name)
    tracer = Tracer() if trace else None
    try:
        workload = make_workload(name, workdir, **sizes)
        loop = measure(workload, seed, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = loop["attempted"], loop["failed"]
    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    if trace:
        units = PER_LAYER_UNITS
        values = tracer.per_layer(loop["op_s"][True], loop["op_s"][False])
        spans_path = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"  {len(tracer.spans)} spans from {tracer.ops} traced operations "
              f"written to {spans_path.relative_to(ROOT)}")
        for key, value in values.items():
            print(report_line(key, value, units[key]))
    else:
        units = END_TO_END_UNITS
        op_s, scaled_op_s = loop["op_s"][False], loop["scaled_op_s"]
        values = {
            "setup_s": median(p["setup_s"] for p in setup),
            "op_s": median(scaled_op_s) if scaled_op_s else float("nan"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(report_line("setup_s", values["setup_s"], "s", f"scaled, median of {len(setup)}"))
        print(report_line("op_s", values["op_s"], "s", f"scaled, median of {len(scaled_op_s)}"))
        print(report_line("peak_rss_mb", values["peak_rss_mb"], "MB"))
        print(report_line("wall setup_s", median(p["wall_s"] for p in setup), "s"))
        for key, series in {"wall op_s": op_s, **loop["named"]}.items():
            if series:
                print(report_line(key, median(series), "s", f"wall, median of {len(series)}"))
    print(report_line("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted}"))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for variable in THREAD_VARIABLES:  # inherited by every child process
        os.environ[variable] = "1"

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                            str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload)))
        return 0
    src = use_checkout_source()
    import cubetrees

    if not Path(cubetrees.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: cubetrees was imported from {cubetrees.__file__}, not from {src}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
