"""Tests for the perf-trajectory sweep matrix, artifacts, and gate."""

import json
import re
from pathlib import Path

import pytest

from repro.artifacts import load
from repro.bench.artifacts import SWEEP, SWEEP_AREAS, artifact_path
from repro.bench.gate import (
    GateResult,
    compare_artifacts,
    format_gate_report,
    provenance_delta,
)
from repro.bench.repeats import RepeatedStats
from repro.bench.sweep import DEFAULT_SEEDS, SweepCell, run_cell, run_sweep
from repro.cli import main
from repro.errors import BenchmarkError

REPO_ROOT = Path(__file__).resolve().parents[1]

# One tiny cell per driver keeps each sweep in the tens of milliseconds.
CONV_CELL = SweepCell(driver="conv", framework="dglite", kernel="gcn",
                      dataset="ppi", scale=0.3)
TRAIN_CELL = SweepCell(driver="train", framework="dglite", kernel="graphsage",
                       dataset="ppi", scale=0.3)
SEEDS = (0, 1)


def tiny_sweep(cell=TRAIN_CELL, seeds=SEEDS):
    return run_sweep("training" if cell.driver == "train" else "kernels",
                     seeds=seeds, cells=[cell])


class TestSweepCells:
    def test_cell_id_encodes_all_axes(self):
        assert CONV_CELL.cell_id == "conv/dglite/gcn/ppi/x0.3"
        piped = SweepCell(**{**TRAIN_CELL.params, "placement": "cpugpu",
                             "pipeline": "depth-4"})
        assert piped.cell_id == "train/dglite/graphsage/ppi/x0.3/cpugpu/depth-4"

    def test_params_round_trip(self):
        assert SweepCell.from_params(TRAIN_CELL.params) == TRAIN_CELL

    def test_from_params_rejects_missing_keys(self):
        with pytest.raises(BenchmarkError):
            SweepCell.from_params({"driver": "conv"})

    def test_cell_deterministic_per_seed(self):
        a = run_cell(TRAIN_CELL, seeds=SEEDS)
        b = run_cell(TRAIN_CELL, seeds=SEEDS)
        assert a == b
        assert sorted(a["metrics"]) == ["energy_j", "virtual_s"]

    def test_seeds_actually_vary_training_time(self):
        cell = run_cell(TRAIN_CELL, seeds=(0, 1, 2))
        values = cell["metrics"]["virtual_s"]
        assert len(set(values)) > 1
        assert RepeatedStats(tuple(values)).std > 0

    def test_unknown_driver_rejected_naming_the_cell(self):
        bad = SweepCell(driver="warp", framework="dglite", kernel="gcn",
                        dataset="ppi", scale=0.3)
        with pytest.raises(BenchmarkError, match="sweep cell "
                           "warp/dglite/gcn/ppi/x0.3: unknown sweep driver"):
            run_cell(bad, seeds=(0,))

    def test_empty_seeds_rejected(self):
        with pytest.raises(BenchmarkError):
            run_cell(TRAIN_CELL, seeds=())


class TestArtifacts:
    def test_round_trip_validates(self, tmp_path):
        artifact = tiny_sweep()
        path = SWEEP.write(tmp_path / "BENCH_training.json", artifact)
        loaded = load(path)
        assert SWEEP.validate(loaded) == []
        assert loaded == artifact

    def test_artifact_has_provenance_and_seeds(self):
        artifact = tiny_sweep(CONV_CELL)
        assert artifact["schema"] == "repro.bench.sweep/2"
        assert artifact["seeds"] == list(SEEDS)
        assert sorted(artifact["provenance"]) == [
            "numpy", "platform", "python", "scipy"]

    def test_unknown_area_rejected_before_any_cell_runs(self):
        seen = []
        with pytest.raises(BenchmarkError, match="unknown sweep area 'power'"):
            run_sweep("power", progress=seen.append)
        assert seen == []

    def test_sweep_is_a_pure_function_of_code_and_seeds(self, tmp_path):
        paths = [SWEEP.write(tmp_path / name / "BENCH_training.json",
                             tiny_sweep())
                 for name in ("a", "b")]
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("area", SWEEP_AREAS)
def test_committed_baselines_reproduce_exactly(area):
    """``BENCH_<area>.json`` is what this tree produces, to the last bit."""
    committed = load(artifact_path(REPO_ROOT, area))
    fresh = run_sweep(area, seeds=committed["seeds"],
                      cells=[SweepCell.from_params(cell["params"])
                             for cell in committed["cells"]])
    result = compare_artifacts(committed, fresh)
    assert result.passed, format_gate_report([result])


class TestGate:
    def test_passes_on_identical_baseline(self):
        artifact = tiny_sweep(CONV_CELL)
        result = compare_artifacts(artifact, artifact)
        assert result.passed
        assert result.problems == [] and result.moved == []
        assert "(1 cell(s), bit-identical)" in format_gate_report([result])

    @pytest.mark.parametrize("factor", [2.0, 1.01, 0.99, 0.5])
    def test_any_move_fails_naming_the_cell(self, scale_cell, factor):
        baseline = tiny_sweep(CONV_CELL)
        result = compare_artifacts(
            baseline, scale_cell(baseline, CONV_CELL.cell_id, factor))
        assert not result.passed and result.problems == []
        virtual, energy, *hints = result.moved
        assert virtual.startswith(f"{CONV_CELL.cell_id} virtual_s: ")
        assert virtual.endswith(f"({factor:.4f}x)")
        assert energy.startswith(f"{CONV_CELL.cell_id} energy_j: ")
        assert hints and all(line.startswith(
            f"{CONV_CELL.cell_id} attribution: ") for line in hints)
        report = format_gate_report([result])
        assert "[FAIL]" in report and "repro bench sweep" in report

    def test_environment_lines_only_when_something_moved(self, scale_cell):
        baseline = tiny_sweep(CONV_CELL)
        elsewhere = json.loads(json.dumps(baseline))
        elsewhere["provenance"]["numpy"] = "0.0.1"
        assert compare_artifacts(baseline, elsewhere).environment == []
        nudged = scale_cell(elsewhere, CONV_CELL.cell_id, 0.99)
        report = format_gate_report([compare_artifacts(baseline, nudged)])
        numpy_now = baseline["provenance"]["numpy"]
        assert f"  environment: numpy: {numpy_now!r} -> '0.0.1'" in report

    def test_attribution_only_change_fails(self):
        baseline = tiny_sweep(CONV_CELL)
        shifted = json.loads(json.dumps(baseline))
        phases = shifted["cells"][0]["attribution"]["phases"]
        phases["forward"] *= 2
        result = compare_artifacts(baseline, shifted)
        assert not result.passed
        assert result.moved and all("attribution only: " in line
                                    for line in result.moved)

    def test_missing_cell_is_a_problem(self):
        baseline = tiny_sweep(CONV_CELL)
        empty = json.loads(json.dumps(baseline))
        empty["cells"] = [dict(empty["cells"][0], id="conv/other")]
        result = compare_artifacts(baseline, empty)
        assert not result.passed
        assert any("missing from current sweep" in p for p in result.problems)

    def test_seed_set_change_is_a_problem(self):
        baseline = tiny_sweep(CONV_CELL)
        other = tiny_sweep(CONV_CELL, seeds=(0,))
        result = compare_artifacts(baseline, other)
        assert any("seed set changed" in p for p in result.problems)

    def test_area_mismatch_is_a_problem(self):
        baseline = tiny_sweep(CONV_CELL)
        result = compare_artifacts(baseline, dict(baseline, area="training"))
        assert result.problems == [
            "area mismatch: baseline 'kernels' vs current 'training'"]
        assert result.moved == [] and result.cells == 0

    def test_malformed_current_is_a_problem_not_a_raise(self):
        baseline = tiny_sweep(CONV_CELL)
        broken = json.loads(json.dumps(baseline))
        del broken["cells"][0]["metrics"]["energy_j"]
        result = compare_artifacts(baseline, broken)
        (problem,) = result.problems
        assert problem.startswith("current artifact: ")
        assert "energy_j" in problem and result.moved == []

    def test_non_dict_baseline_is_a_problem_not_a_raise(self):
        result = compare_artifacts(None, tiny_sweep(CONV_CELL))
        assert result.area == "?" and not result.passed
        assert result.problems[0].startswith(
            "baseline artifact: payload: expected dict")

    @pytest.mark.parametrize("metric, seed_index", [
        ("energy_j", 0), ("virtual_s", 1),
    ], ids=["energy-only", "second-seed"])
    def test_move_outside_recorded_attribution_says_so(self, metric,
                                                       seed_index):
        """Attribution records the first seed's time only, so a move in
        energy or in a later seed is named with an 'unchanged' hint."""
        baseline = tiny_sweep(CONV_CELL)
        moved = json.loads(json.dumps(baseline))
        moved["cells"][0]["metrics"][metric][seed_index] *= 1.5
        result = compare_artifacts(baseline, moved)
        delta, hint = result.moved
        assert delta.startswith(f"{CONV_CELL.cell_id} {metric}: ")
        assert hint.startswith(
            f"{CONV_CELL.cell_id} attribution: attribution unchanged")

    def test_params_change_is_named(self):
        baseline = tiny_sweep(CONV_CELL)
        relabelled = json.loads(json.dumps(baseline))
        relabelled["cells"][0]["params"]["kernel"] = "sage"
        result = compare_artifacts(baseline, relabelled)
        assert not result.passed
        assert any(line.startswith(f"{CONV_CELL.cell_id} params: ")
                   and "'sage'" in line for line in result.moved)

    def test_zero_baseline_metric_reports_infinite_ratio(self):
        baseline = tiny_sweep(CONV_CELL)
        zeroed = json.loads(json.dumps(baseline))
        zeroed["cells"][0]["metrics"]["energy_j"] = [0.0] * len(SEEDS)
        result = compare_artifacts(zeroed, baseline)
        (energy,) = [line for line in result.moved if " energy_j: " in line]
        assert energy.endswith("(infx)")

    def test_passed_means_no_problems_and_nothing_moved(self):
        assert GateResult(area="kernels").passed
        assert not GateResult(area="kernels", problems=["p"]).passed
        assert not GateResult(area="kernels", moved=["m"]).passed

    def test_report_gives_each_area_its_own_verdict(self, scale_cell):
        kernels = tiny_sweep(CONV_CELL)
        training = tiny_sweep(TRAIN_CELL)
        report = format_gate_report([
            compare_artifacts(kernels, kernels),
            compare_artifacts(training, scale_cell(
                training, TRAIN_CELL.cell_id, 1.01)),
        ]).splitlines()
        assert report[0] == ("[PASS] bench gate: kernels "
                             "(1 cell(s), bit-identical)")
        assert report[1].startswith("[FAIL] bench gate: training "
                                    "(1 cell(s), 0 problem(s), ")
        assert report[-1].startswith("perf trajectory MOVED")

    def test_report_with_only_problems_is_not_compared(self):
        report = format_gate_report(
            [GateResult(area="serving", problems=["no baseline"])])
        assert report.splitlines() == [
            "[FAIL] bench gate: serving (0 cell(s), 1 problem(s), "
            "0 moved line(s))",
            "  problem: no baseline",
            "perf trajectory NOT COMPARED — fix the problems above "
            "(see docs/bench.md)",
        ]

    def test_provenance_delta_names_added_and_removed_keys(self):
        old = {"provenance": {"numpy": "1.0", "python": "3.11"}}
        new = {"provenance": {"python": "3.11", "scipy": "1.11"}}
        assert provenance_delta(old, new) == [
            "numpy: '1.0' -> None",
            "scipy: None -> '1.11'",
        ]


class TestCli:
    def _baseline(self, tmp_path):
        artifact = tiny_sweep(TRAIN_CELL, seeds=(0,))
        SWEEP.write(artifact_path(tmp_path, "training"), artifact)
        return tmp_path

    def test_gate_exit_zero_on_baseline(self, tmp_path, capsys):
        root = self._baseline(tmp_path)
        assert main(["bench", "gate", "--area", "training",
                     "--baseline-dir", str(root)]) == 0
        assert "perf trajectory OK" in capsys.readouterr().out

    def test_gate_exit_nonzero_on_moved_baseline(self, tmp_path, capsys,
                                                 scale_cell):
        path = artifact_path(self._baseline(tmp_path), "training")
        SWEEP.write(path, scale_cell(load(path), TRAIN_CELL.cell_id, 2.0))
        assert main(["bench", "gate", "--area", "training",
                     "--baseline-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"moved: {TRAIN_CELL.cell_id} virtual_s: " in out
        assert f"moved: {TRAIN_CELL.cell_id} attribution: " in out
        assert "perf trajectory MOVED" in out

    def test_gate_missing_baseline_fails_with_hint(self, tmp_path, capsys):
        assert main(["bench", "gate", "--area", "kernels",
                     "--baseline-dir", str(tmp_path)]) == 1
        assert "repro bench sweep" in capsys.readouterr().out

    @pytest.mark.parametrize("damage, expected", [
        (lambda text: text[:200], "unparseable"),
        (lambda text: text.replace('"driver": "train",', ""),
         "cells[0].params.driver: missing"),
        (lambda text: text.replace('"driver": "train"', '"driver": "bogus"'),
         "cells[0].params.driver: 'bogus' is not one of"),
        (lambda text: text.replace(SWEEP.schema, "repro.bench.sweep/1"),
         "unknown schema 'repro.bench.sweep/1'"),
        (lambda text: text.replace('"area": "training"', '"area": "kernels"'),
         "area 'kernels' does not match file name"),
    ], ids=["truncated", "no-driver", "bogus-driver", "schema-1",
            "wrong-area"])
    def test_gate_rejects_bad_baseline_before_sweeping(
            self, tmp_path, capsys, monkeypatch, damage, expected):
        path = artifact_path(self._baseline(tmp_path), "training")
        path.write_text(damage(path.read_text()))

        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called against a bad baseline")

        monkeypatch.setattr("repro.bench.sweep.run_sweep", no_sweep)
        assert main(["bench", "gate", "--area", "training",
                     "--baseline-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        (problem,) = [line for line in out.splitlines() if "problem: " in line]
        assert "BENCH_training.json" in problem and expected in problem
        assert "NOT COMPARED" in out and "MOVED" not in out

    def test_gate_reports_a_cell_that_cannot_rerun(self, tmp_path, capsys):
        """A shape-valid cell whose params the driver rejects is a problem
        line naming the cell, not a traceback."""
        artifact = tiny_sweep(TRAIN_CELL, seeds=(0,))
        cell = artifact["cells"][0]
        bad = SweepCell(**{**cell["params"], "driver": "serve",
                           "placement": "tpu"})
        cell.update(id=bad.cell_id, params=bad.params)
        SWEEP.write(artifact_path(tmp_path, "serving"),
                    dict(artifact, area="serving"))
        assert main(["bench", "gate", "--area", "serving",
                     "--baseline-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        (problem,) = [line for line in out.splitlines() if "problem: " in line]
        assert f"sweep cell {bad.cell_id}: " in problem
        assert "placement" in problem and "NOT COMPARED" in out

    def test_gate_all_areas_names_each_missing_baseline(self, tmp_path,
                                                        capsys, monkeypatch):
        root = self._baseline(tmp_path)

        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called with baselines missing")

        monkeypatch.setattr("repro.bench.sweep.run_sweep", no_sweep)
        assert main(["bench", "gate", "--baseline-dir", str(root)]) == 1
        problems = [line for line in capsys.readouterr().out.splitlines()
                    if "problem: " in line]
        assert len(problems) == len(SWEEP_AREAS) - 1
        for area in set(SWEEP_AREAS) - {"training"}:
            assert any(f"BENCH_{area}.json: missing" in p for p in problems)

    def test_sweep_writes_a_baseline_the_gate_accepts(self, tmp_path, capsys,
                                                      monkeypatch):
        full_sweep = run_sweep

        def one_cell_sweep(area, seeds=DEFAULT_SEEDS, cells=None,
                           progress=None):
            return full_sweep(area, seeds=seeds, cells=cells or [TRAIN_CELL],
                              progress=progress)

        monkeypatch.setattr("repro.bench.sweep.run_sweep", one_cell_sweep)
        assert main(["bench", "sweep", "--area", "training",
                     "--out-dir", str(tmp_path)]) == 0
        written = load(artifact_path(tmp_path, "training"))
        assert written["seeds"] == list(DEFAULT_SEEDS)
        assert main(["bench", "gate", "--area", "training",
                     "--baseline-dir", str(tmp_path)]) == 0
        assert "perf trajectory OK" in capsys.readouterr().out

    @pytest.mark.parametrize("command, options", [
        ("gate", {"--area", "--baseline-dir"}),
        ("sweep", {"--area", "--out-dir"}),
    ])
    def test_help_lists_only_the_kept_options(self, command, options,
                                              capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == options | {"--help"}

    @pytest.mark.parametrize("argv", [
        ["bench", "gate", "--k", "3"],
        ["bench", "gate", "--inject-slowdown", "conv/x=2"],
        ["bench", "sweep", "--seeds", "0,1"],
        ["suite", "suite.json"],
    ], ids=["gate-k", "gate-inject", "sweep-seeds", "suite"])
    def test_retired_options_are_argparse_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


class TestRepeatedStatsEdgeCases:
    def test_sample_std_uses_bessel_correction(self):
        assert RepeatedStats((1.0, 2.0, 3.0)).std == pytest.approx(1.0)

    def test_single_value_has_zero_spread(self):
        stats = RepeatedStats((4.2,))
        assert stats.n == 1
        assert stats.std == 0.0
        assert stats.cov == 0.0

    def test_constant_series(self):
        stats = RepeatedStats((5.0, 5.0, 5.0, 5.0))
        assert stats.std == 0.0
        assert stats.cov == 0.0

    def test_negative_mean_cov_stays_positive(self):
        stats = RepeatedStats((-1.0, -2.0, -3.0))
        assert stats.mean == pytest.approx(-2.0)
        assert stats.std == pytest.approx(1.0)
        assert stats.cov == pytest.approx(0.5)
