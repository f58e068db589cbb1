"""Smoke test of the benchmark itself, at tiny budgets.

    python3 -m pytest perfbench/test_smoke.py -q

Every declared metric must be printed, by name and with its unit, for
every workload, with tracing off and on, and the output checks must run.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

# checks each workload's outputs must have gone through
EXPECTED_CHECKS = {
    "det-front": {
        "archive finite", "archive inside design bounds",
        "archive mutually nondominated",
        "distinct outer evaluations equal outer_budget",
    },
    "minmax-contam": {
        "archive mutually nondominated",
        "distinct outer evaluations equal outer_budget",
        "every inner search used exactly inner_budget",
    },
    "belpl-curve": {
        "belpl_b.csv: 0 <= Bel <= Pl <= 1, nondecreasing in v",
        "belpl_m_sys.csv: 0 <= Bel <= Pl <= 1, nondecreasing in v",
        "every inner search used exactly inner_budget",
    },
}
ACCURACY_CHECKS = {
    "references match the scenario file",
    "max design, contamination off, within the 1e-3 floor",
}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr

    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(
            line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
            for line in lines
        ), m["name"]
    assert any(line.split()[1:2] == ["failed_frac"] for line in lines)

    record = json.loads(lines[0][2:])
    assert EXPECTED_CHECKS[workload] | ACCURACY_CHECKS <= set(record["checks_run"])
    if trace:
        assert "layer self times sum to within 5% of the traced wall" in record["checks_run"]
        assert abs(result["metrics"]["trace.self_sum_frac"]["value"] - 1.0) <= 0.05
    else:
        for metric in ("setup_s", "wall_s", "evals_per_s", "b_rel_err_max", "front_hv"):
            assert result["metrics"][metric]["value"] > 0.0
        acc = record["accuracy"]
        assert acc["b_ref_gap_at_argmax"] < acc["b_rel_err_max"]
    for key in ("nproc", "cpu_model", "versions", "seed", "budgets", "noise_note"):
        assert key in record


def test_fails_without_program_sources():
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
