"""Smoke test of the benchmark itself, at tiny path counts.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric named in BENCHMARK.json is printed with its
unit, that two traced runs give identical counts (and pass the
instrument's cross-check), that seeds other than the defaults run
cleanly, that the drifting_cli gate fails a program that never emits,
and that the benchmark refuses to run without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
sys.path.insert(0, str(HERE))
from run import SRC, TIME_UNITS  # noqa: E402
from workloads import WORKLOADS as IMPLS  # noqa: E402


def bench(workload, seed, trace, root=ROOT, paths=60):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--paths", str(paths)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def assert_metrics(result, declared):
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_at_another_seed(workload):
    result = result_of(bench(workload, 7, 0))
    assert_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (result_of(bench(workload, 3, 1)) for _ in range(2))
    assert_metrics(first, BENCH["per_layer"])
    for name, metric in first["metrics"].items():
        if metric["unit"] not in TIME_UNITS and name != "trace.overhead_frac":
            assert metric == second["metrics"][name], name
    assert first["metrics"]["ensemble.paths"]["value"] == 60


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 7, 0, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def fake_summary(path, n_paths, n_emissions, p0_start, p0_end):
    """An ensemble_summary.json whose occupancy matches |psi0|^2 within
    4 sigma at every grid point, with the given emission count."""
    records = [
        {"record": "header"},
        {"record": "occupancy", "p0_hat": [p0_start, p0_end], "z_scores": [0.0, 4.0]},
        {"record": "sector0", "passed": True},
        {"record": "totals", "n_paths": n_paths, "n_emissions": n_emissions,
         "n_absorptions": 0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


def test_drifting_gate_fails_without_emissions(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    workload = IMPLS["drifting_cli"]
    n = workload.n_paths
    st = workload.setup(workload.make_inputs(tmp_path, 7, n))
    n0 = round(0.97 * n)
    expected = round(n0 * (1.0 - st["vacuum_survival"]))
    assert expected > 30

    fake_summary(tmp_path / "ok.json", n, expected, n0 / n, (n0 - expected) / n)
    fake_summary(tmp_path / "none.json", n, 0, n0 / n, n0 / n)
    for name, passes in (("ok.json", True), ("none.json", False)):
        failures, _, _ = workload.check({**st, "summary": str(tmp_path / name)}, 0)
        assert (not failures) == passes, failures
        assert passes or any("emission count" in f for f in failures)
