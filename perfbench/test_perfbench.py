"""Tests of the benchmark itself, at small scale.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Each test runs the benchmark's command line and checks its result line
against ``BENCHMARK.json``; the small mode keeps every workload to a few
seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from common import ROOT, WORKLOADS, percentile

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _run(*args: str, cwd: Path = ROOT) -> "tuple[int, list[str]]":
    proc = subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _result(lines: "list[str]") -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)
    return result


def test_spec_names_only_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


# Every workload, also the ones ``BENCHMARK.json`` does not gate.
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_small_run_prints_every_end_to_end_metric(workload):
    code, lines = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", "0", "--small",
    )
    assert code == 0, "\n".join(lines[-20:])
    result = _result(lines)
    assert result["correct"] is True
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # Every metric is printed by name with its sample count.
    for name in expected:
        assert any(line.split()[:1] == [name] and "(n=" in line for line in lines)


def test_small_traced_run_prints_every_per_layer_metric():
    code, lines = _run(
        "--workload", "serve-utxo-k16", "--seed", "3", "--seconds", "1",
        "--trace", "1", "--small",
    )
    assert code == 0, "\n".join(lines[-20:])
    result = _result(lines)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert sum("waterfall" in line for line in lines) == 2
    assert (ROOT / ".bench_build" / "trace-3.json").is_file()


def test_same_seed_gives_same_outputs():
    def outcomes():
        code, lines = _run(
            "--workload", "serve-utxo-k16", "--seed", "5", "--seconds", "1",
            "--small",
        )
        assert code == 0
        metrics = _result(lines)["metrics"]
        return metrics["cross_shard_fraction"], metrics["shard_imbalance"]

    assert outcomes() == outcomes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    # The copied run.py finds its checkout from its own location.
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-utxo-k16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert not (tmp_path / ".bench_build").exists()


def test_mismatched_reply_counts_as_failure():
    from types import SimpleNamespace

    import common

    common.prepare_environment()
    from repro.service.wire import RESPONSE_FLAG, STATUS_SHARDS
    from serve import ServePlan

    plan = ServePlan.__new__(ServePlan)
    plan.expected = [b"\x00\x00\x00\x00", b"\x01\x00\x00\x00"]
    plan.ranges = [(0, 1), (1, 2)]

    ok = RESPONSE_FLAG | STATUS_SHARDS
    result = SimpleNamespace(
        payloads=[b"\x00\x00\x00\x00", b"\x02\x00\x00\x00"], kinds=[ok, ok]
    )
    report = common.Report({})
    plan.check(result, report, "unit")
    assert (report.attempted, report.failed, report.correct) == (2, 1, False)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert percentile(values, 0.5) == 500
    assert percentile(values, 0.99) == 990
    assert percentile([7.0], 0.99) == 7.0
