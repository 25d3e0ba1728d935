"""Smoke and check tests for the benchmark itself.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from measurelp import moment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_named_metric(workload, trace):
    result = run.run(workload, seed=1, seconds=0.01, trace=trace, tiny=True)
    assert result["attempted"] >= 1
    assert _units(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    wrong = [f for f in result["failures"] if f.startswith(checks.WRONG)]
    assert result["correct"] and not wrong


def test_command_prints_the_result_as_its_last_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exchange_1d", "--seed", "3",
         "--seconds", "0.05", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert _units(result["metrics"]) == END_TO_END
    for name in END_TO_END:
        assert f"{name}: " in proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli_1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _perturbed(call):
    """Wrap Exchange1D.call so the dual certificate loses 0.01 of slack everywhere."""

    def perturbed_call(case):
        ex, slater = call(case)
        # z[0] multiplies the unit-mass function, so this lowers the slack uniformly
        z = (ex.dual.z[0] - 0.01,) + ex.dual.z[1:]
        ex.dual = moment.DualPoint(y=ex.dual.y, z=z)
        return ex, slater

    return perturbed_call


def test_perturbed_dual_certificate_counts_as_failed():
    wl = workloads.Exchange1D(seed=5, tiny=True)
    _, honest = run.closed_loop(wl, 0.0, passes=1)
    wl.call = _perturbed(wl.call)
    _, perturbed = run.closed_loop(wl, 0.0, passes=1)
    passed = [k for k, failures in enumerate(honest) if not failures]
    assert passed
    for k in passed:
        violated = [f for f in perturbed[k] if "certificate violated" in f.message]
        assert violated and violated[0].kind == checks.UNSOUND


def test_same_seed_gives_the_same_counts():
    first, second = (run.run("exchange_1d", seed=7, seconds=0.2, trace=False, tiny=True)
                     for _ in range(2))
    assert first["attempted"] == second["attempted"] == len(workloads.Exchange1D(7, tiny=True).cases)
    assert first["failed"] == second["failed"]
    assert first["failures"] == second["failures"]
