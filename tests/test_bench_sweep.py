"""Tests for the perf-trajectory sweep matrix, artifacts, and gate."""

import json
from pathlib import Path

import pytest

from repro.artifacts import load
from repro.bench.artifacts import SWEEP, SWEEP_AREAS, artifact_path
from repro.bench.gate import (
    compare_artifacts,
    format_gate_report,
    gate_report_payload,
    inject_slowdown,
    noise_envelope,
    provenance_delta,
)
from repro.bench.repeats import RepeatedStats
from repro.bench.sweep import SweepCell, run_cell, run_sweep
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

    def test_unknown_driver_rejected(self):
        bad = SweepCell(driver="warp", framework="dglite", kernel="gcn",
                        dataset="ppi", scale=0.3)
        with pytest.raises(BenchmarkError):
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
        assert "numpy" in artifact["provenance"]
        assert artifact["provenance"]["kernel_mode"] == "fast"

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
    assert SWEEP.validate(committed) == []
    fresh = run_sweep(area, seeds=committed["seeds"],
                      cells=[SweepCell.from_params(cell["params"])
                             for cell in committed["cells"]])
    delta = provenance_delta(committed, fresh)
    note = "environment: " + ("; ".join(delta) if delta else "unchanged")
    assert fresh["seeds"] == committed["seeds"], note
    moved = [theirs["id"] for ours, theirs
             in zip(fresh["cells"], committed["cells"]) if ours != theirs]
    assert fresh["cells"] == committed["cells"], f"{moved} moved ({note})"


class TestGate:
    def test_passes_on_identical_baseline(self):
        artifact = tiny_sweep(CONV_CELL)
        result = compare_artifacts(artifact, artifact)
        assert result.passed and result.identical
        assert result.regressions == [] and result.moved == []
        assert "(1 cell(s), bit-identical)" in format_gate_report([result])
        area = gate_report_payload([result])["areas"][0]
        assert area["identical"] is True and area["moved"] == []

    def test_fails_on_injected_slowdown_naming_the_cell(self):
        baseline = tiny_sweep(CONV_CELL)
        doctored = inject_slowdown(baseline, CONV_CELL.cell_id, 2.0)
        result = compare_artifacts(baseline, doctored)
        assert not result.passed
        assert {r.cell_id for r in result.regressions} == {CONV_CELL.cell_id}
        assert {r.metric for r in result.regressions} == {"virtual_s",
                                                          "energy_j"}
        report = format_gate_report([result])
        assert "FAIL" in report and CONV_CELL.cell_id in report

    def test_small_drift_within_envelope_passes(self):
        baseline = tiny_sweep(CONV_CELL)
        nudged = inject_slowdown(baseline, CONV_CELL.cell_id, 1.01)
        assert compare_artifacts(baseline, nudged).passed

    def test_drift_inside_envelope_is_reported_as_moved(self):
        baseline = tiny_sweep(CONV_CELL)
        nudged = inject_slowdown(baseline, CONV_CELL.cell_id, 0.99)
        result = compare_artifacts(baseline, nudged)
        assert result.passed and not result.identical
        assert result.improvements == []
        moved = [line for line in format_gate_report([result]).splitlines()
                 if "moved (inside envelope): " in line]
        assert len(moved) == 2  # virtual_s and energy_j
        assert f"{CONV_CELL.cell_id} virtual_s: " in moved[0]
        assert "(0.9900x)" in moved[0]
        assert gate_report_payload([result])["areas"][0]["moved"] == result.moved

    def test_environment_lines_only_when_something_moved(self):
        baseline = tiny_sweep(CONV_CELL)
        elsewhere = json.loads(json.dumps(baseline))
        elsewhere["provenance"]["numpy"] = "0.0.1"
        assert compare_artifacts(baseline, elsewhere).environment == []
        nudged = inject_slowdown(elsewhere, CONV_CELL.cell_id, 0.99)
        report = format_gate_report([compare_artifacts(baseline, nudged)])
        numpy_now = baseline["provenance"]["numpy"]
        assert f"  environment: numpy: {numpy_now!r} -> '0.0.1'" in report

    def test_attribution_only_change_is_not_identical(self):
        baseline = tiny_sweep(CONV_CELL)
        shifted = json.loads(json.dumps(baseline))
        phases = shifted["cells"][0]["attribution"]["phases"]
        phases["forward"] *= 2
        result = compare_artifacts(baseline, shifted)
        assert result.passed and not result.identical
        assert any("attribution only" in line for line in result.moved)

    def test_injected_artifact_still_validates(self):
        baseline = tiny_sweep(TRAIN_CELL)
        doctored = inject_slowdown(baseline, TRAIN_CELL.cell_id, 2.0)
        assert SWEEP.validate(doctored) == []
        # Statistics are derived from the values, so they cannot go stale.
        before, after = (RepeatedStats(tuple(
            artifact["cells"][0]["metrics"]["virtual_s"]))
            for artifact in (baseline, doctored))
        assert after.n == before.n == len(SEEDS)
        assert after.mean == pytest.approx(2.0 * before.mean)
        assert after.std == pytest.approx(2.0 * before.std)

    def test_improvements_reported_not_failed(self):
        baseline = tiny_sweep(CONV_CELL)
        faster = inject_slowdown(baseline, CONV_CELL.cell_id, 0.5)
        result = compare_artifacts(baseline, faster)
        assert result.passed
        assert any(CONV_CELL.cell_id in line for line in result.improvements)

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

    def test_inject_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            inject_slowdown(tiny_sweep(CONV_CELL), "conv/nope", 2.0)

    def test_noise_envelope_floor_for_zero_std(self):
        assert noise_envelope(10.0, 0.0, rel_slack=0.02) == pytest.approx(10.2)
        assert noise_envelope(10.0, 1.0, k=3.0) == pytest.approx(13.0)

    def test_report_payload_schema(self):
        artifact = tiny_sweep(CONV_CELL)
        payload = gate_report_payload([compare_artifacts(artifact, artifact)])
        assert payload["schema"] == "repro.bench.gate/1"
        assert payload["passed"] is True
        assert payload["areas"][0]["area"] == "kernels"


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

    def test_gate_exit_nonzero_on_injected_slowdown(self, tmp_path, capsys):
        root = self._baseline(tmp_path)
        assert main(["bench", "gate", "--area", "training",
                     "--baseline-dir", str(root),
                     "--inject-slowdown", f"{TRAIN_CELL.cell_id}=2.0"]) == 1
        out = capsys.readouterr().out
        assert TRAIN_CELL.cell_id in out and "REGRESSED" in out

    def test_gate_json_report_written(self, tmp_path, capsys):
        root = self._baseline(tmp_path)
        out_file = tmp_path / "gate.json"
        assert main(["bench", "gate", "--area", "training",
                     "--baseline-dir", str(root), "--format", "json",
                     "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["passed"] is True
        capsys.readouterr()

    def test_gate_missing_baseline_fails_with_hint(self, tmp_path, capsys):
        assert main(["bench", "gate", "--area", "kernels",
                     "--baseline-dir", str(tmp_path)]) == 1
        assert "repro bench sweep" in capsys.readouterr().out

    @pytest.mark.parametrize("damage, expected", [
        (lambda text: text[:200], "unparseable"),
        (lambda text: text.replace('"driver": "train",', ""),
         "cells[0].params.driver: missing"),
        (lambda text: text.replace(SWEEP.schema, "repro.bench.sweep/1"),
         "unknown schema 'repro.bench.sweep/1'"),
    ], ids=["truncated", "no-driver", "schema-1"])
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
        assert "NOT COMPARED" in out and "REGRESSED" not in out

    def test_gate_unknown_injection_cell_rejected(self, tmp_path, capsys):
        root = self._baseline(tmp_path)
        with pytest.raises(SystemExit):
            main(["bench", "gate", "--area", "training",
                  "--baseline-dir", str(root),
                  "--inject-slowdown", "conv/nope=2.0"])
        capsys.readouterr()

    def test_sweep_rejects_bad_seed_list(self):
        with pytest.raises(SystemExit):
            main(["bench", "sweep", "--seeds", "zero,one"])


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
