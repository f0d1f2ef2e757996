"""Smoke test of the perf benchmark: ``PYTHONPATH=src pytest perf/ -q``.

Runs every workload with shrunk counts (``--quick --rounds 2``); checks the
output contract against BENCHMARK.json, that the simulated numbers and the
layer-entry counts repeat exactly, that tracing does not perturb the
simulation, and that a planted failure makes the run exit non-zero.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [item["name"] for item in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perf/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)


def quick(workload: str, trace: int):
    done = run_cli("--workload", workload, "--quick", "--rounds", "2",
                   "--seed", "3", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def table_value(lines, name: str) -> float:
    row = next(line.split() for line in lines if line.startswith(name + " "))
    return float(row[1])


def test_benchmark_json_names_are_well_formed():
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer")
             for item in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert len(BENCH["per_layer"]) <= 128
    assert "setup_s" in {item["name"] for item in BENCH["end_to_end"]}


def test_list_prints_what_benchmark_json_declares():
    done = run_cli("--list")
    assert done.returncode == 0
    for key in ("workloads", "end_to_end", "per_layer"):
        for item in BENCH[key]:
            assert item["name"] in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_exactly_the_end_to_end_metrics(workload):
    lines, result = quick(workload, trace=0)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {item["name"]: item["unit"] for item in BENCH["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == declared
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert any(line.startswith("# host: nproc=") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_exact_and_accounts_for_the_block(workload):
    lines, first = quick(workload, trace=1)
    lines_again, second = quick(workload, trace=1)
    declared = {item["name"]: item["unit"] for item in BENCH["per_layer"]}
    assert {name: entry["unit"] for name, entry in first["metrics"].items()} \
        == declared
    # The simulation and the layer-entry counts repeat exactly ...
    assert table_value(lines, "sim_s") == table_value(lines_again, "sim_s")
    for name, entry in first["metrics"].items():
        if name.endswith(".calls") or ".sim_" in name:
            assert entry["value"] == second["metrics"][name]["value"], name
    # ... tracing does not perturb the simulation ...
    assert any(line.startswith("check traced_sim_s_eq_untraced")
               and line.split()[2] == "ok" for line in lines)
    # ... and the layers' self times add up to the traced block.
    traced_block = float(re.search(
        r"# traced block ([0-9.]+) s", "\n".join(lines)).group(1))
    self_total = sum(entry["value"] for name, entry in first["metrics"].items()
                     if name.endswith(".host_self_s"))
    assert math.isclose(self_total, traced_block, rel_tol=0.02)
    assert (ROOT / "perf" / "out" / f"trace-{workload}.json").is_file()


@pytest.fixture
def perf_main(monkeypatch):
    """``perf.run.main`` in-process; its environment changes are undone."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perf import run

    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")  # main() overwrites; restored after
    yield run.main
    del sys.path[:2]


def test_planted_nan_loss_fails_the_run(perf_main, monkeypatch, capsys):
    from repro.bench import harness

    real = harness.run_training_experiment

    def poisoned(*args, **kwargs):
        result = real(*args, **kwargs)
        result.losses[0] = float("nan")
        return result

    monkeypatch.setattr(harness, "run_training_experiment", poisoned)
    code = perf_main(["--workload", "sage_train", "--quick", "--rounds", "2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_planted_dropped_request_fails_the_run(perf_main, monkeypatch, capsys):
    from repro import serving

    real = serving.run_serving_experiment

    def lossy(*args, **kwargs):
        result = real(*args, **kwargs)
        result.completed -= 1
        return result

    monkeypatch.setattr(serving, "run_serving_experiment", lossy)
    code = perf_main(["--workload", "serve_ladder", "--quick", "--rounds", "2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] >= 1
