"""Self-tests of the benchmark at tiny sizes (``--smoke``).

Run from the root of the checkout:

    python -m pytest perfbench

They sit outside the package's ``testpaths``, so the package's own test run
neither collects nor waits for them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "simulate_x", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_general_point_is_seeded_and_in_range():
    assert workloads.general_point(7) == workloads.general_point(7)
    eta, p, q = workloads.general_point(7)
    assert 0.3 <= eta <= 0.8 and 0.2 <= abs(p) <= 0.8 and 0.2 <= abs(q) <= 0.8


def _write(path: Path, header: str, rows: np.ndarray) -> None:
    np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.12g")


def test_simulate_check_flags_a_broken_identity(tmp_path):
    job = workloads.simulate_x(1, tmp_path, smoke=True)
    ref = workloads.read_table(workloads.REFERENCE)
    keep = np.isin(np.round(ref["t"], 9), np.round(np.linspace(0, 6, 9), 9))
    table = np.column_stack([col[keep] for col in ref.values()])
    _write(job.outputs[0], ",".join(ref), table)
    assert job.check() == []
    table[3, 3] += 1e-6  # discord no longer equals mutual_info - classical_corr
    _write(job.outputs[0], ",".join(ref), table)
    assert job.check()


def test_region_check_flags_a_wrong_verdict(tmp_path):
    job = workloads.region_confirm(1, tmp_path, smoke=True)
    rows = np.array([[0.0, 0.0, 1, 0.5, 2e-8]] * 121)
    _write(job.outputs[0], "p,q,entangling,excess,negativity", rows)
    assert job.check() == []
    rows[5, 4] = 0.0
    _write(job.outputs[0], "p,q,entangling,excess,negativity", rows)
    assert job.check()


def test_missing_output_is_a_problem(tmp_path):
    assert workloads.heatmap_sweep(1, tmp_path, smoke=True).check()
