"""Smoke tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_bench.py

Each workload runs scaled down (--smoke), end to end, output checks
included, in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import homgen  # noqa: E402
import run  # noqa: E402


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "0.1",
         *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = result_of(bench(ROOT, "--workload", workload, "--trace", "0", "--smoke"))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    result = result_of(bench(ROOT, "--workload", workload, "--trace", "1", "--smoke"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["cli.calls"]["value"] >= 1


def test_spec_lists_every_per_layer_metric():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == run.per_layer_names()
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS) == sorted(run.SMOKE)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(tmp_path, "--workload", WORKLOADS[0], "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_request_sample_depends_only_on_seed():
    cases = homgen.all_cases()
    assert len(cases) == 1306
    a = [c.key for c in homgen.sample_requests(cases, 50, 3)]
    assert a == [c.key for c in homgen.sample_requests(cases, 50, 3)]
    assert a != [c.key for c in homgen.sample_requests(cases, 50, 4)]
