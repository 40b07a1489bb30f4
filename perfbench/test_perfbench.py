"""Smoke-sized tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from superext import groups  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = sorted(workloads.RUNNERS)


def smoke_run(workload, trace, script=HERE / "run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = smoke_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}


def _wrong(expect):
    return "count=0 partial=false" if isinstance(expect, str) else dict(expect, type="C2^99")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_trips_on_a_wrong_expected_value(workload):
    item = workloads.make_inputs(workload, 3, smoke=True)[0][-1]
    ctx = workloads.Context(workload, 3, workloads.FreshCheck())
    run = workloads.RUNNERS[workload]
    run(item, ctx)
    with pytest.raises(workloads.GateError):
        run(dataclasses.replace(item, expect=_wrong(item.expect)), ctx)


def test_reused_object_trips_the_fresh_check():
    fresh = workloads.FreshCheck()
    g = fresh(groups.make_cyclic(3))
    fresh(groups.make_cyclic(3))
    with pytest.raises(workloads.GateError):
        fresh(g)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = smoke_run(WORKLOADS[0], 0, script=tmp_path / "perfbench" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
