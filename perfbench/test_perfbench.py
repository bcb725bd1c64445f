"""Tests of the benchmark itself, on the ``tiny`` size.

    python3 -m pytest perfbench/test_perfbench.py -q
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Simulated metrics every run prints as ``name: value unit`` lines.
SIM_LINES = ("sim_total_time_s", "sim_frame_p50_ms", "sim_frame_p99_ms", "tenant_p99_worst_ms")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_RUNS: dict = {}


def cached_run(workload: str, seed: int, trace: int):
    key = (workload, seed, trace)
    if key not in _RUNS:
        _RUNS[key] = run_bench(workload, seed, trace)
    return _RUNS[key]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(workload, trace, section):
    proc = cached_run(workload, 1, trace)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    human = proc.stdout.splitlines()[:-1]
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in human), name
        assert isinstance(result["metrics"][name]["value"], (int, float))


def simulated(proc) -> dict:
    """The simulated metrics of a run: its sim lines plus the JSON ones."""
    out = {}
    for line in proc.stdout.splitlines():
        name, _, rest = line.partition(": ")
        if name in SIM_LINES:
            out[name] = rest
    metrics = result_of(proc)["metrics"]
    for name in ("fast_miss_rate", "fairness_jain"):
        out[name] = metrics[name]["value"]
    assert set(out) == set(SIM_LINES) | {"fast_miss_rate", "fairness_jain"}
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sim_metrics_repeat_exactly(workload):
    assert simulated(cached_run(workload, 1, 0)) == simulated(run_bench(workload, 1, 0))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import SIZES, WORKLOADS as CLASSES

        make = CLASSES[workload]
        assert make(SIZES["tiny"], 1).input_digest() == make(SIZES["tiny"], 1).input_digest()
        assert make(SIZES["tiny"], 1).input_digest() != make(SIZES["tiny"], 2).input_digest()
    finally:
        del sys.path[:2]
    one = result_of(cached_run(workload, 1, 0))["metrics"]
    two = result_of(run_bench(workload, 2, 0))["metrics"]
    assert list(one) == list(two)


def test_a_failed_check_fails_its_frames_and_the_command(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    real = workloads.ExplainWorkload._cell

    def lru_cells_fail(self, *args, **kwargs):
        cell = real(self, *args, **kwargs)
        if cell.key.endswith("/lru"):
            cell.failures.append("injected failure")
        return cell

    monkeypatch.setattr(workloads.ExplainWorkload, "_cell", lru_cells_fail)
    code = run.main(["--workload", "explain", "--seed", "1", "--seconds", "0", "--size", "tiny"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] * 2 == result["attempted"] > 0
    assert "CHECK FAILED" in out and "injected failure" in out


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    proc = run_bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
