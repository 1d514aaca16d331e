"""Tests of the benchmark itself, on its smoke sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

They run perfbench/run.py as a user would and check its output schema, its
metric names against BENCHMARK.json, that per-layer counts repeat exactly,
and that the traced spans account for the traced run time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke() -> dict:
    """Per workload: one untraced smoke result and two traced ones."""
    out = {}
    for name in SPEC["workloads"]:
        wl = name["name"]
        base = ("--workload", wl, "--smoke", "--seconds", "1")
        out[wl] = {
            "trace0": result_line(bench(*base, "--trace", "0")),
            "trace1": [result_line(bench(*base, "--trace", "1")) for _ in range(2)],
        }
    return out


def check_schema(result: dict, spec_metrics: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec_metrics]
    for spec in spec_metrics:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_untraced_schema_and_names(smoke):
    for results in smoke.values():
        check_schema(results["trace0"], SPEC["end_to_end"])
        assert all(m["value"] > 0 for m in results["trace0"]["metrics"].values())


def test_traced_schema_and_names(smoke):
    for results in smoke.values():
        for result in results["trace1"]:
            check_schema(result, SPEC["per_layer"])


def test_counts_repeat_exactly(smoke):
    for results in smoke.values():
        first, second = (r["metrics"] for r in results["trace1"])
        for name in run.COUNT_UNITS:
            assert first[name]["value"] == second[name]["value"], name


def test_count_ranges(smoke):
    """Checks that hold for any version of the program. Today's values, which
    later changes are meant to move, are recorded in perfbench/README.md."""
    for wl, results in smoke.items():
        metrics = results["trace1"][0]["metrics"]
        assert 0.0 <= metrics["spectral.basis_matrix.repeat_frac"]["value"] < 1.0
        assert metrics["lsq.g_decompositions_per_instance"]["value"] >= 1.0
        if run.WORKLOADS[wl].subcommand == "claims":
            assert metrics["errors.worst_case_error_trunc.entries"]["value"] == 0


def test_self_times_account_for_traced_time(smoke):
    for results in smoke.values():
        for result in results["trace1"]:
            accounted = result["metrics"]["trace.accounted_frac"]["value"]
            assert 0.95 <= accounted <= 1.0 + 1e-9


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "rates-d1", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
