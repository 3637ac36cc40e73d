"""Span and count recording around the package's public functions.

The tracer wraps each probed function at every module attribute that a
caller looks it up through (the package namespace and each submodule that
imported it by name), so calls from inside the package are seen as well as
calls from the benchmark.  Wrappers are installed for one operation at a
time and removed afterwards, so untraced operations run the original code.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time covered by its direct child spans; in a single
thread children nest inside their parent and never overlap, so that is the
sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Callable, Iterator

Counts = Callable[[tuple, Any], dict[str, float]]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _file_bytes(path: str | Path) -> dict[str, float]:
    return {"bytes": Path(path).stat().st_size}


# (span name, defining module, attribute, counts taken from (args, result),
#  whether to record the rise of the process's peak RSS across the call).
PROBES: tuple[tuple[str, str, str, Counts | None, bool], ...] = (
    ("hypercube.edge_endpoints", "cubetrees.hypercube", "edge_endpoints",
     lambda a, r: {"ids": len(r[0])}, False),
    ("construct.construct", "cubetrees.construct", "construct",
     lambda a, r: {"edges_labelled": r.labels.size}, False),
    ("construct.tree_edge_ids", "cubetrees.construct", "Decomposition.tree_edge_ids",
     None, False),
    ("verify.verify_decomposition", "cubetrees.verify", "verify_decomposition",
     lambda a, r: {
         "trees_checked": len(r.trees),
         "edges_checked": a[0].labels.size,
         "rejects": int(not r.overall),
     }, True),
    ("verify.is_matching", "cubetrees.verify", "is_matching", None, False),
    ("verify.forest_components", "cubetrees.verify", "forest_components", None, False),
    ("broadcast.broadcast_metrics", "cubetrees.broadcast", "broadcast_metrics",
     lambda a, r: {"vertices_reached": len(r.depths) << a[0].n}, False),
    ("broadcast.tree_depths", "cubetrees.broadcast", "tree_depths", None, False),
    ("broadcast.link_load", "cubetrees.broadcast", "link_load", None, False),
    ("files.write", "cubetrees.files", "write_decomposition",
     lambda a, r: _file_bytes(a[1]), False),
    ("files.read", "cubetrees.files", "read_decomposition",
     lambda a, r: _file_bytes(a[0]), True),
    ("files.export", "cubetrees.files", "export_decomposition",
     lambda a, r: {"bytes": len(r.encode())}, False),
    ("bounds.bounds_for", "cubetrees.bounds", "bounds_for", None, False),
    ("oracle.load_edge_list", "cubetrees.oracle", "load_edge_list", None, False),
    # The arboricity oracle scans every vertex mask from 3 to 2^V - 1.
    ("oracle.nw_arboricity", "cubetrees.oracle", "nw_arboricity",
     lambda a, r: {"subsets": (1 << a[0].num_vertices) - 3}, False),
    ("oracle.packing_upper_bound", "cubetrees.oracle", "packing_upper_bound", None, False),
    ("cli.main", "cubetrees.cli", "main", lambda a, r: {f"exit_codes.{r}": 1}, False),
)

# Per-layer metrics: name -> unit.  Every one is reported on every workload;
# a layer the workload never calls reads 0.
PER_LAYER_UNITS: dict[str, str] = {
    "hypercube.edge_endpoints.calls": "count/op",
    "hypercube.edge_endpoints.ids": "count/op",
    "hypercube.edge_endpoints.busy_s": "s/op",
    "construct.construct.busy_s": "s/op",
    "construct.construct.edges_labelled": "count/op",
    "construct.tree_edge_ids.calls": "count/op",
    "construct.tree_edge_ids.busy_s": "s/op",
    "verify.verify_decomposition.busy_s": "s/op",
    "verify.self_s": "s/op",
    "verify.leftover_s": "s/op",
    "verify.trees_checked": "count/op",
    "verify.edges_checked": "count/op",
    "verify.rejects": "count/op",
    "verify.rss_rise_mb": "MB",
    "verify.share": "%",
    "broadcast.broadcast_metrics.busy_s": "s/op",
    "broadcast.tree_depths.busy_s": "s/op",
    "broadcast.link_load.busy_s": "s/op",
    "broadcast.self_s": "s/op",
    "broadcast.vertices_reached": "count/op",
    "files.write.busy_s": "s/op",
    "files.write.bytes": "B/op",
    "files.read.busy_s": "s/op",
    "files.read.bytes": "B/op",
    "files.read.rss_rise_mb": "MB",
    "files.export.busy_s": "s/op",
    "files.export.bytes": "B/op",
    "bounds.bounds_for.calls": "count/op",
    "bounds.bounds_for.busy_s": "s/op",
    "oracle.busy_s": "s/op",
    "oracle.subsets": "count/op",
    "oracle.partitions": "count/op",
    "cli.main.calls": "count/op",
    "cli.main.busy_s": "s/op",
    "cli.self_s": "s/op",
    "cli.exit_codes.0": "count/op",
    "cli.exit_codes.5": "count/op",
    "trace.op_s": "s/op",
    "trace.overhead_s": "s/op",
    "trace.spans": "count/op",
}


@dataclass(slots=True)
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0


class Tracer:
    """Records spans and counts for the operations run under `recording`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.rss_rise_mb: Counter[str] = Counter()
        self.ops = 0
        self._stack: list[int] = []
        self._op = -1

    @contextlib.contextmanager
    def recording(self, op: int) -> Iterator["Tracer"]:
        """Wrap every probe for the duration of operation `op`, then put the originals back."""
        self._op = op
        self.ops += 1
        saved: list[tuple[object, str, object]] = []
        try:
            modules = [m for name, m in list(sys.modules.items())
                       if name == "cubetrees" or name.startswith("cubetrees.")]
            for name, module_name, attr, counts, rss in PROBES:
                owner: object = sys.modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapper = self._wrap(name, original, counts, rss)
                holders = [owner] if path else [m for m in modules
                                                if getattr(m, leaf, None) is original]
                for holder in holders:
                    saved.append((holder, leaf, original))
                    setattr(holder, leaf, wrapper)
            oracle = sys.modules["cubetrees.oracle"]
            saved.append((oracle, "restricted_growth_strings", oracle.restricted_growth_strings))
            oracle.restricted_growth_strings = self._count_partitions(
                oracle.restricted_growth_strings)
            yield self
        finally:
            for holder, leaf, original in reversed(saved):
                setattr(holder, leaf, original)

    def _count_partitions(self, original: Callable) -> Callable:
        """Count the vertex partitions the packing oracle draws."""
        counts = self.counts

        def counted(n: int) -> Iterator[tuple[int, ...]]:
            for assign in original(n):
                counts["oracle.partitions"] += 1
                yield assign

        return counted

    def _wrap(self, name: str, fn: Callable, counts: Counts | None, rss: bool) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), name, self._op, stack[-1] if stack else None,
                        time.perf_counter())
            spans.append(span)
            stack.append(span.id)
            peak_before = _peak_rss_mb() if rss else 0.0
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            self.counts[f"{name}.calls"] += 1
            if counts is not None:
                for key, value in counts(args, result).items():
                    self.counts[f"{name}.{key}"] += value
            if rss:
                self.rss_rise_mb[name] += _peak_rss_mb() - peak_before
            return result

        return traced

    def busy_s(self) -> dict[str, float]:
        busy: defaultdict[str, float] = defaultdict(float)
        for s in self.spans:
            busy[s.name] += s.end - s.start
        return busy

    def self_s(self) -> dict[str, float]:
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        by_name: defaultdict[str, float] = defaultdict(float)
        for s in self.spans:
            by_name[s.name] += own[s.id]
        return by_name

    def per_layer(self, traced_op_s: list[float], untraced_op_s: list[float]) -> dict[str, float]:
        """Per-layer metrics, each a mean per traced operation unless its unit says otherwise."""
        ops = max(self.ops, 1)
        busy, own, c = self.busy_s(), self.self_s(), self.counts

        def layer_sum(table: dict[str, float], prefix: str) -> float:
            return sum(v for k, v in table.items() if k.startswith(prefix))

        values = {
            "hypercube.edge_endpoints.calls": c["hypercube.edge_endpoints.calls"],
            "hypercube.edge_endpoints.ids": c["hypercube.edge_endpoints.ids"],
            "hypercube.edge_endpoints.busy_s": busy["hypercube.edge_endpoints"],
            "construct.construct.busy_s": busy["construct.construct"],
            "construct.construct.edges_labelled": c["construct.construct.edges_labelled"],
            "construct.tree_edge_ids.calls": c["construct.tree_edge_ids.calls"],
            "construct.tree_edge_ids.busy_s": busy["construct.tree_edge_ids"],
            "verify.verify_decomposition.busy_s": busy["verify.verify_decomposition"],
            "verify.self_s": layer_sum(own, "verify."),
            "verify.leftover_s": busy["verify.is_matching"] + busy["verify.forest_components"],
            "verify.trees_checked": c["verify.verify_decomposition.trees_checked"],
            "verify.edges_checked": c["verify.verify_decomposition.edges_checked"],
            "verify.rejects": c["verify.verify_decomposition.rejects"],
            "broadcast.broadcast_metrics.busy_s": busy["broadcast.broadcast_metrics"],
            "broadcast.tree_depths.busy_s": busy["broadcast.tree_depths"],
            "broadcast.link_load.busy_s": busy["broadcast.link_load"],
            "broadcast.self_s": layer_sum(own, "broadcast."),
            "broadcast.vertices_reached": c["broadcast.broadcast_metrics.vertices_reached"],
            "files.write.busy_s": busy["files.write"],
            "files.write.bytes": c["files.write.bytes"],
            "files.read.busy_s": busy["files.read"],
            "files.read.bytes": c["files.read.bytes"],
            "files.export.busy_s": busy["files.export"],
            "files.export.bytes": c["files.export.bytes"],
            "bounds.bounds_for.calls": c["bounds.bounds_for.calls"],
            "bounds.bounds_for.busy_s": busy["bounds.bounds_for"],
            "oracle.busy_s": layer_sum(busy, "oracle."),
            "oracle.subsets": c["oracle.nw_arboricity.subsets"],
            "oracle.partitions": c["oracle.partitions"],
            "cli.main.calls": c["cli.main.calls"],
            "cli.main.busy_s": busy["cli.main"],
            "cli.self_s": layer_sum(own, "cli."),
            "cli.exit_codes.0": c["cli.main.exit_codes.0"],
            "cli.exit_codes.5": c["cli.main.exit_codes.5"],
            "trace.spans": len(self.spans),
        }
        per_op = {k: v / ops for k, v in values.items()}
        traced_total = sum(traced_op_s)
        per_op.update({
            "verify.rss_rise_mb": self.rss_rise_mb["verify.verify_decomposition"],
            "files.read.rss_rise_mb": self.rss_rise_mb["files.read"],
            "verify.share": 100 * busy["verify.verify_decomposition"] / traced_total
            if traced_total else 0.0,
            "trace.op_s": median(traced_op_s) if traced_op_s else 0.0,
            "trace.overhead_s": median(traced_op_s) - median(untraced_op_s)
            if traced_op_s and untraced_op_s else 0.0,
        })
        return per_op

    def write_spans(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start, "end": s.end,
                }) + "\n")
