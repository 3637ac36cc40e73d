"""The benchmark's workloads: inputs, one operation, and its correctness gate.

Each workload is a closed loop with one caller.  `draw` makes the inputs of
one operation from the run's seeded generator, `operation` calls the package
only through its public functions and returns what came back, and `check`
compares that against references computed here, outside the timed region.
`check` returns a list of failure messages; an empty list means correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path
from typing import Any

import numpy as np

import cubetrees
import cubetrees.cli


class Certify:
    """construct -> write -> read -> verify, once for an even and once for an odd n.

    One operation certifies Q_even and then Q_odd, so each operation covers
    both leftover checks (matching and forest).  The seed drives nothing:
    the construction is deterministic.
    """

    name = "certify"
    calibration_size = 1 << 12  # graph size of the calibration kernel, chosen by measurement

    def __init__(self, workdir: Path, even: int = 20, odd: int = 19) -> None:
        self.workdir = workdir
        self.sizes = {"even": even, "odd": odd}
        self.file_sha256: dict[int, str] = {}

    def draw(self, rng: random.Random) -> None:
        return None

    def operation(self, inputs: None) -> dict[str, Any]:
        steps = {}
        for kind, n in self.sizes.items():
            start = time.perf_counter()
            path = self.workdir / f"q{n}.dec"
            cubetrees.write_decomposition(cubetrees.construct(n), path)
            dec = cubetrees.read_decomposition(path)
            report = cubetrees.verify_decomposition(dec)
            steps[kind] = {"n": n, "dec": dec, "report": report,
                           "seconds": time.perf_counter() - start}
        return steps

    def check(self, steps: dict[str, Any]) -> list[str]:
        failures = []
        for kind, step in steps.items():
            n, dec, report = step["n"], step["dec"], step["report"]
            if not report.overall:
                failures.append(f"Q_{n}: verification failed")
            bounds = cubetrees.bounds_for(n)
            counts = np.bincount(dec.labels, minlength=dec.k + 1)
            if (dec.k != bounds.tree_packing or int(counts[0]) != bounds.leftover
                    or not np.all(counts[1:] == bounds.vertices - 1)):
                failures.append(f"Q_{n}: label counts {counts.tolist()} disagree with bounds_for")
            digest = hashlib.sha256((self.workdir / f"q{n}.dec").read_bytes()).hexdigest()
            if self.file_sha256.setdefault(n, digest) != digest:
                failures.append(f"Q_{n}: file bytes differ from the first operation's")
        return failures

    def step_seconds(self, steps: dict[str, Any], op_seconds: float) -> dict[str, float]:
        return {f"certify_{kind}_s": step["seconds"] for kind, step in steps.items()}


class Broadcast:
    """broadcast_metrics on a decomposition built once, from seeded roots."""

    name = "broadcast"
    calibration_size = 1 << 15  # a working set beyond the per-core cache, like the Q_16 BFS

    def __init__(self, workdir: Path, n: int = 16) -> None:
        self.n = n
        self.dec = cubetrees.construct(n)

    def draw(self, rng: random.Random) -> tuple[int, int, float]:
        return rng.randrange(1 << self.n), rng.randint(1, 64), rng.uniform(0.5, 4.0)

    def operation(self, inputs: tuple[int, int, float]) -> tuple[tuple, Any]:
        root, parts, hop_cost = inputs
        return inputs, cubetrees.broadcast_metrics(self.dec, root, parts, hop_cost)

    def check(self, outcome: tuple[tuple, Any]) -> list[str]:
        (root, parts, hop_cost), metrics = outcome
        depths = reference_depths(self.dec.labels, self.n, self.dec.k, root)
        failures = []
        if list(metrics.depths) != depths:
            failures.append(f"root {root}: depths {list(metrics.depths)}, reference {depths}")
        if metrics.max_link_load != 1:
            failures.append(f"root {root}: max link load {metrics.max_link_load}")
        if metrics.total_time_model != hop_cost * (max(depths) + parts - 1):
            failures.append(f"root {root}: time model {metrics.total_time_model}")
        return failures

    def step_seconds(self, outcome: Any, op_seconds: float) -> dict[str, float]:
        return {"broadcast_query_s": op_seconds}


def reference_depths(labels: np.ndarray, n: int, k: int, root: int) -> list[int]:
    """Depth of each tree from root by breadth-first search, independent of the package.

    Edge ids are decoded from the documented dimension-major layout:
    id = d * 2^(n-1) + (u with bit d removed), where u has bit d clear.
    """
    depths = []
    for j in range(1, k + 1):
        ids = np.flatnonzero(labels == j)
        d = ids >> (n - 1)
        low = ids & ((1 << (n - 1)) - 1)
        u = ((low >> d) << (d + 1)) | (low & ((1 << d) - 1))
        src, dst = np.concatenate([u, u | (1 << d)]), np.concatenate([u | (1 << d), u])
        order = np.argsort(src, kind="stable")
        targets = dst[order]
        starts = np.searchsorted(src[order], np.arange((1 << n) + 1))
        dist = np.full(1 << n, -1)
        dist[root] = 0
        frontier = np.array([root])
        level = 0
        while frontier.size:
            lo, sizes = starts[frontier], starts[frontier + 1] - starts[frontier]
            # Concatenate the neighbour ranges [lo, lo + size) of the frontier.
            index = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
            frontier = np.unique(targets[index][dist[targets[index]] < 0])
            level += 1
            dist[frontier] = level
        depths.append(int(dist.max()) if (dist >= 0).all() else -1)
    return depths


class CliSweep:
    """One in-process pass of cli.main over every step for n = 1..max_n, then the oracles."""

    name = "cli-sweep"
    calibration_size = 1 << 12

    def __init__(self, workdir: Path, max_n: int = 14) -> None:
        self.workdir = workdir
        self.max_n = max_n
        self.oracle_inputs = {"arboricity": (4, workdir / "q4.txt"),
                              "packing": (3, workdir / "q3.txt")}
        for n, path in self.oracle_inputs.values():
            path.write_text("".join(f"{u} {u | 1 << d}\n" for d in range(n)
                                    for u in range(1 << n) if not u >> d & 1))

    def draw(self, rng: random.Random) -> list[dict[str, Any]]:
        plans = []
        for n in range(1, self.max_n + 1):
            edges, k = n << (n - 1), n // 2
            plans.append({
                "n": n,
                "mutate_at": rng.randrange(edges),
                "mutate_by": rng.randint(1, k) if k else 0,
                "root": rng.randrange(1 << n),
                "parts": rng.randint(1, 16),
            })
        return plans

    def _main(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cubetrees.cli.main(argv)
        return code, out.getvalue()

    def operation(self, plans: list[dict[str, Any]]) -> list[tuple]:
        steps = []
        for plan in plans:
            n = plan["n"]
            dec_path = str(self.workdir / f"q{n}.dec")
            bad_path = str(self.workdir / f"bad{n}.dec")
            edges_path = str(self.workdir / f"q{n}.edges")
            steps.append((n, "construct", 0, *self._main(["construct", "-n", str(n), "-o", dec_path])))
            steps.append((n, "verify", 0, *self._main(["verify", dec_path, "--format", "json"])))
            if n > 1:
                data = bytearray(Path(dec_path).read_bytes())
                at = 9 + plan["mutate_at"]  # 9-byte header, then one label per edge
                data[at] = (data[at] + plan["mutate_by"]) % (n // 2 + 1)
                Path(bad_path).write_bytes(data)
                steps.append((n, "verify-mutated", 5, *self._main(["verify", bad_path])))
            steps.append((n, "info", 0, *self._main(["info", "-n", str(n)])))
            steps.append((n, "export", 0, *self._main(
                ["export", dec_path, "--format", "edgelist", "-o", edges_path])))
            if n > 1:
                steps.append((n, "broadcast", 0, *self._main(
                    ["broadcast", dec_path, "--root", str(plan["root"]),
                     "--parts", str(plan["parts"])])))
        for which, (n, path) in self.oracle_inputs.items():
            steps.append((n, "oracle", 0, *self._main(["oracle", str(path), "--which", which])))
        return steps

    def check(self, steps: list[tuple]) -> list[str]:
        failures = []
        expected_oracle = {"arboricity": 3, "packing": 1}
        for n, step, want, code, stdout in steps:
            if code != want:
                failures.append(f"Q_{n} {step}: exit code {code}, expected {want}")
            elif step == "verify" and not json.loads(stdout)["overall"]:
                failures.append(f"Q_{n} verify: JSON report is not overall true")
            elif step == "export":
                lines = (self.workdir / f"q{n}.edges").read_text().count("\n")
                if lines != n << (n - 1):
                    failures.append(f"Q_{n} export: {lines} lines, expected {n << (n - 1)}")
            elif step == "oracle":
                which, value = stdout.split(":")
                if int(value) != expected_oracle[which]:
                    failures.append(f"Q_{n} oracle {which}: {value.strip()}")
        return failures

    def step_seconds(self, steps: Any, op_seconds: float) -> dict[str, float]:
        return {"sweep_s": op_seconds}


WORKLOADS = {w.name: w for w in (Certify, Broadcast, CliSweep)}
