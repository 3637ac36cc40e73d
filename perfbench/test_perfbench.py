"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run

run.use_checkout_source()

import cubetrees  # noqa: E402  (needs the checkout's src/ on the path)
import cubetrees.cli  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402

TINY = {"certify": {"even": 6, "odd": 5}, "broadcast": {"n": 6}, "cli-sweep": {"max_n": 5}}


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_declared_metrics_match_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == PER_LAYER_UNITS


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_smoke_run_reports_every_metric(name, seed, capsys, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run(name, seed, 0.0, trace=False, **TINY[name])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"seed {seed}" in capsys.readouterr().out


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_layer(name):
    result = run.run(name, 3, 0.0, trace=True, **TINY[name])
    assert result["correct"]
    for function in (cubetrees.cli.main, cubetrees.cli.verify_decomposition,
                     cubetrees.verify.edge_endpoints, cubetrees.Decomposition.tree_edge_ids):
        assert function.__module__.startswith("cubetrees."), "a probe was left wrapped"
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared("per_layer")
    if name == "certify":
        assert values["verify.verify_decomposition.busy_s"] > 0
        assert all(v == 0 for k, v in values.items() if k.startswith("broadcast."))
    if name == "broadcast":
        assert values["broadcast.tree_depths.busy_s"] > 0
        assert all(v == 0 for k, v in values.items() if k.startswith("verify."))
    if name == "cli-sweep":
        assert values["cli.exit_codes.5"] == TINY[name]["max_n"] - 1
        assert values["oracle.partitions"] == 4140  # Bell(8), the partitions of Q_3's vertices


def corrupt_certify(steps):
    steps["odd"]["dec"].labels[0] ^= 1
    return steps


def corrupt_broadcast(outcome):
    inputs, metrics = outcome
    return inputs, dataclasses.replace(metrics, depths=(metrics.depths[0] + 1,) + metrics.depths[1:])


def corrupt_cli_sweep(steps):
    n, step, want, code, stdout = steps[0]
    return [(n, step, want, 5, stdout)] + steps[1:]


@pytest.mark.parametrize("name, corrupt", [
    ("certify", corrupt_certify),
    ("broadcast", corrupt_broadcast),
    ("cli-sweep", corrupt_cli_sweep),
])
def test_corrupted_result_counts_as_failed(name, corrupt, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, **TINY[name])
    operation = workload.operation
    workload.operation = lambda inputs: corrupt(operation(inputs))
    loop = run.measure(workload, seed=4, seconds=0.0)
    assert loop["attempted"] == 1 and loop["failed"] == 1


def test_reference_bfs_agrees_with_package():
    dec = cubetrees.construct(9)
    for root in (0, 5, 511):
        assert workloads.reference_depths(dec.labels, 9, dec.k, root) == cubetrees.tree_depths(dec, root)
