"""Tests for the offline profiler (``repro profile``).

Covers byte-determinism of the ``repro.profile/1`` artifacts across
same-seed runs, critical-path extraction (coverage, slack, tie-breaks),
roofline attribution and its zero-peak guards, folded-flamegraph
exclusive-time accounting, diff alignment edge cases (missing spans,
renamed phases), the bench-gate attribution hints, schema round-trips, and the CLI surfaces.
"""

import json
import shutil

import pytest

from repro.artifacts import load
from repro.bench.gate import attribution_hints, compare_artifacts
from repro.bench.harness import run_training_experiment
from repro.bench.sweep import SweepCell, run_cell
from repro.cli import main as cli_main
from repro.errors import BenchmarkError
from repro.profiling.analysis import (
    PROFILE,
    analyze_run_dir,
    diff_run_dirs,
    format_diff_report,
    format_profile_report,
    load_run_bundle,
)
from repro.profiling.analysis.bundle import LaneInterval, RunBundle
from repro.profiling.analysis.critical_path import extract_critical_path
from repro.profiling.analysis.diff import classify_deltas, span_path_totals
from repro.profiling.analysis.flame import folded_stacks, render_folded
from repro.profiling.analysis.roofline import pct_of_peak, roofline_attribution


def _train_run(out_dir, seed=0):
    return run_training_experiment(
        "dglite", "ppi", "graphsage", epochs=2,
        representative_batches=2, seed=seed, telemetry_dir=str(out_dir),
    )


@pytest.fixture(scope="module")
def analyzed_run(telemetry_bundle):
    out, _, payload = telemetry_bundle
    return out, payload


# ----------------------------------------------------------------------
# unit: critical path
# ----------------------------------------------------------------------
def _bundle(intervals, manifest=None):
    return RunBundle(manifest=manifest or {"total_seconds": 1.0},
                     intervals=intervals)


class TestCriticalPath:
    def test_empty_run(self):
        result = extract_critical_path(_bundle([]))
        assert result["makespan"] == 0.0
        assert result["coverage"] == 0.0
        assert result["segments"] == []

    def test_sequential_intervals_fully_cover(self):
        intervals = [
            LaneInterval("cpu", "a", 0.0, 1.0),
            LaneInterval("cpu", "b", 1.0, 3.0),
        ]
        result = extract_critical_path(_bundle(intervals))
        assert result["makespan"] == pytest.approx(3.0)
        assert result["critical_seconds"] == pytest.approx(3.0)
        assert result["coverage"] == pytest.approx(1.0)
        assert result["idle_seconds"] == pytest.approx(0.0)
        assert [s["name"] for s in result["segments"]] == ["a", "b"]

    def test_overlapped_lane_gets_slack_not_path(self):
        # GPU busy the whole time; PCIe overlapped inside it.
        intervals = [
            LaneInterval("gpu", "kernel", 0.0, 4.0),
            LaneInterval("pcie", "h2d", 1.0, 2.0),
        ]
        result = extract_critical_path(_bundle(intervals))
        assert [s["lane"] for s in result["segments"]] == ["gpu"]
        assert result["by_lane"]["pcie"]["critical_seconds"] == 0.0
        assert result["by_lane"]["pcie"]["slack_seconds"] == pytest.approx(3.0)
        assert result["by_lane"]["gpu"]["slack_seconds"] == pytest.approx(0.0)

    def test_gap_counts_as_idle(self):
        intervals = [
            LaneInterval("cpu", "a", 0.0, 1.0),
            LaneInterval("cpu", "b", 2.0, 3.0),
        ]
        result = extract_critical_path(_bundle(intervals))
        assert result["idle_seconds"] == pytest.approx(1.0)
        assert result["critical_seconds"] == pytest.approx(2.0)

    def test_tie_break_prefers_longest_then_lexical(self):
        # Both end at t=2; the longer one bounds the path.
        intervals = [
            LaneInterval("cpu", "short", 1.5, 2.0),
            LaneInterval("gpu", "long", 0.0, 2.0),
        ]
        result = extract_critical_path(_bundle(intervals))
        assert [s["name"] for s in result["segments"]] == ["long"]

    def test_consecutive_same_kernel_segments_merge(self):
        intervals = [LaneInterval("cpu", "k", float(i), float(i) + 1.0)
                     for i in range(5)]
        result = extract_critical_path(_bundle(intervals))
        assert len(result["segments"]) == 1
        assert result["segments"][0]["count"] == 5
        assert result["segments"][0]["seconds"] == pytest.approx(5.0)


# ----------------------------------------------------------------------
# unit: roofline + guards (satellite: zero-peak / zero-total safety)
# ----------------------------------------------------------------------
class TestRooflineGuards:
    def test_pct_of_peak_zero_peak(self):
        assert pct_of_peak(10.0, 0.0) == 0.0
        assert pct_of_peak(10.0, -1.0) == 0.0
        assert pct_of_peak(10.0, None) == 0.0
        assert pct_of_peak(0.0, 100.0) == 0.0

    def test_pct_of_peak_normal(self):
        assert pct_of_peak(50.0, 100.0) == pytest.approx(0.5)

    def test_roofline_without_hardware_section_never_raises(self):
        manifest = {
            "total_seconds": 1.0,
            "hardware": {},
            "metrics": [
                {"name": "kernel.flops", "kind": "counter",
                 "labels": {"device": "cpu0", "kernel": "matmul"},
                 "value": 1e9},
                {"name": "kernel.busy_seconds", "kind": "counter",
                 "labels": {"device": "cpu0", "kernel": "matmul"},
                 "value": 0.0},
            ],
        }
        result = roofline_attribution(RunBundle(manifest=manifest))
        entry = result["kernels"][0]
        assert entry["bound"] == "unknown"  # no peaks recorded
        assert entry["pct_peak_compute"] == 0.0
        assert entry["pct_peak_memory"] == 0.0

    def test_zero_work_kernel_is_overhead(self):
        manifest = {
            "total_seconds": 1.0,
            "hardware": {"devices": {"cpu0": {"peak_flops": 1e12,
                                              "mem_bandwidth": 1e11}}},
            "metrics": [
                {"name": "kernel.busy_seconds", "kind": "counter",
                 "labels": {"device": "cpu0", "kernel": "sample"},
                 "value": 0.5},
            ],
        }
        result = roofline_attribution(RunBundle(manifest=manifest))
        assert result["kernels"][0]["bound"] == "overhead"
        assert result["kernels"][0]["intensity_flops_per_byte"] is None

    def test_transfer_bytes_sum_over_tags(self):
        """Regression: ``pcie.bytes`` also carries a ``tag`` label, and
        keying the bytes by direction alone kept only one tag's share."""
        manifest = {"total_seconds": 1.0, "metrics": [
            {"name": "pcie.bytes", "kind": "counter",
             "labels": {"direction": "h2d", "tag": tag}, "value": value}
            for tag, value in (("features", 300.0), ("labels", 20.0))]}
        (transfer,) = roofline_attribution(
            RunBundle(manifest=manifest))["transfers"]
        assert transfer["bytes_by_direction"] == {"h2d": 320.0}
        assert transfer["bytes"] == 320.0


# ----------------------------------------------------------------------
# unit: flamegraph folding
# ----------------------------------------------------------------------
class TestFlame:
    SPANS = [
        {"id": 1, "parent": None, "name": "train", "dur": 1.0, "credited": 0.0},
        {"id": 2, "parent": 1, "name": "forward", "dur": 0.6, "credited": 0.0},
        {"id": 3, "parent": 1, "name": "backward", "dur": 0.3, "credited": 0.0},
    ]

    def test_exclusive_time_subtracts_children(self):
        stacks = folded_stacks(self.SPANS)
        assert stacks["train"] == pytest.approx(100000)  # 1.0 - 0.9 in us
        assert stacks["train;forward"] == 600000
        assert stacks["train;backward"] == 300000

    def test_render_sorted_with_trailing_newline(self):
        text = render_folded(folded_stacks(self.SPANS))
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert text.endswith("\n")
        assert render_folded({}) == ""

    def test_negative_exclusive_clamped(self):
        spans = [
            {"id": 1, "parent": None, "name": "p", "dur": 0.1, "credited": 0.0},
            {"id": 2, "parent": 1, "name": "c", "dur": 0.5, "credited": 0.0},
        ]
        stacks = folded_stacks(spans)
        assert "p" not in stacks  # clamped to zero, dropped
        assert stacks["p;c"] == 500000

    def test_credited_children_reduce_the_parent(self):
        """An epoch's phases are credited spans (dur 0): they cover the
        epoch's duration, so the epoch keeps only what they leave."""
        spans = [
            {"id": 1, "parent": None, "name": "epoch", "dur": 1.0},
            {"id": 2, "parent": 1, "name": "sampling", "dur": 0.0,
             "credited": 0.7},
            {"id": 3, "parent": 1, "name": "training", "dur": 0.0,
             "credited": 0.2},
        ]
        stacks = folded_stacks(spans)
        assert stacks["epoch"] == pytest.approx(100000)
        assert stacks["epoch;sampling"] == 700000
        assert stacks["epoch;training"] == 200000


# ----------------------------------------------------------------------
# unit: diff alignment
# ----------------------------------------------------------------------
class TestDiffAlignment:
    def test_classify_grown_and_shrunk(self):
        result = classify_deltas({"a": 1.0, "b": 2.0}, {"a": 1.5, "b": 1.0})
        assert result["grown"][0]["key"] == "a"
        assert result["shrunk"][0]["key"] == "b"
        assert result["appeared"] == [] and result["vanished"] == []

    def test_missing_span_lands_in_vanished(self):
        result = classify_deltas({"train;old": 1.0}, {})
        assert result["vanished"][0]["key"] == "train;old"
        assert result["vanished"][0]["delta"] == pytest.approx(-1.0)

    def test_renamed_phase_is_vanished_plus_appeared(self):
        result = classify_deltas({"train;fwd": 1.0}, {"train;forward": 1.0})
        assert result["vanished"][0]["key"] == "train;fwd"
        assert result["appeared"][0]["key"] == "train;forward"
        assert result["grown"] == [] and result["shrunk"] == []

    def test_sub_epsilon_delta_ignored(self):
        result = classify_deltas({"a": 1.0}, {"a": 1.0 + 1e-12})
        assert all(not bucket for bucket in result.values())

    def test_span_path_totals_aggregates_duplicates(self):
        spans = [
            {"id": 1, "parent": None, "name": "epoch", "dur": 1.0},
            {"id": 2, "parent": None, "name": "epoch", "dur": 2.0},
        ]
        assert span_path_totals(spans) == {"epoch": pytest.approx(3.0)}


# ----------------------------------------------------------------------
# end-to-end: analyze + determinism
# ----------------------------------------------------------------------
class TestAnalyzeEndToEnd:
    def test_artifacts_written_and_schema_valid(self, analyzed_run):
        out, payload = analyzed_run
        assert (out / "profile.json").exists()
        assert (out / "flame.folded").exists()
        on_disk = load(out / "profile.json")
        assert PROFILE.validate(on_disk) == []
        assert on_disk["kind"] == "analysis"

    def test_critical_path_covers_run(self, analyzed_run):
        _, payload = analyzed_run
        critical = payload["critical_path"]
        assert critical["makespan"] > 0
        assert 0.9 <= critical["coverage"] <= 1.0 + 1e-9
        assert critical["by_lane"]  # per-lane slack present
        for stats in critical["by_lane"].values():
            assert stats["slack_seconds"] >= 0.0

    def test_roofline_classifies_known_kernels(self, analyzed_run):
        _, payload = analyzed_run
        bounds = {e["kernel"]: e["bound"]
                  for e in payload["roofline"]["kernels"]}
        assert bounds["matmul"] == "compute"
        assert bounds["spmm.fwd"] == "memory"
        assert bounds["neighbor.sample"] == "overhead"
        for entry in payload["roofline"]["kernels"]:
            assert 0.0 <= entry["pct_peak_compute"] <= 1.0

    def test_flame_totals_match_file(self, analyzed_run):
        out, payload = analyzed_run
        text = (out / "flame.folded").read_text()
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in text.splitlines())
        assert total == payload["flame"]["total_micros"]
        assert len(text.splitlines()) == payload["flame"]["stacks"]

    def test_flame_sums_to_run_total(self, analyzed_run):
        """Every virtual second of the run folds into exactly one line."""
        out, payload = analyzed_run
        manifest = json.loads((out / "run.json").read_text())
        total_micros = sum(manifest["phases"].values()) * 1e6
        assert abs(payload["flame"]["total_micros"] - total_micros) \
            <= payload["flame"]["stacks"]  # integer rounding, 1 us a line

    def test_byte_identical_across_same_seed_runs(self, analyzed_run, tmp_path):
        out, _ = analyzed_run
        rerun = tmp_path / "rerun"
        _train_run(rerun)
        analyze_run_dir(rerun)
        assert (rerun / "profile.json").read_bytes() \
            == (out / "profile.json").read_bytes()
        assert (rerun / "flame.folded").read_bytes() \
            == (out / "flame.folded").read_bytes()

    def test_report_renders(self, analyzed_run):
        out, payload = analyzed_run
        text = format_profile_report(payload, load_run_bundle(out))
        assert "critical path:" in text
        assert "roofline:" in text
        assert "flamegraph:" in text

    def test_missing_dir_raises_benchmark_error(self, tmp_path):
        with pytest.raises(BenchmarkError, match="not a telemetry directory"):
            analyze_run_dir(tmp_path / "nope")


class TestDiffEndToEnd:
    def test_self_diff_is_identical(self, analyzed_run):
        out, _ = analyzed_run
        payload = diff_run_dirs(out, out)
        assert PROFILE.validate(payload) == []
        assert payload["identical"] is True
        assert payload["delta_total_seconds"] == 0.0
        text = format_diff_report(payload)
        assert "identical on the virtual clock" in text

    def test_different_seed_diff_has_nonzero_axes(self, analyzed_run, tmp_path):
        out, _ = analyzed_run
        other = tmp_path / "seed1"
        _train_run(other, seed=1)
        payload = diff_run_dirs(out, other)
        assert payload["identical"] is False
        moved = sum(len(bucket) for axis in ("spans", "phases")
                    for bucket in payload[axis].values())
        assert moved > 0


# ----------------------------------------------------------------------
# schema round-trip
# ----------------------------------------------------------------------
class TestSchema:
    def test_round_trip(self, analyzed_run, tmp_path):
        _, payload = analyzed_run
        clean = {k: v for k, v in payload.items() if k != "artifacts"}
        path = PROFILE.write(tmp_path / "p.json", clean)
        assert load(path) == json.loads(json.dumps(clean))


# ----------------------------------------------------------------------
# the one (device, kernel) counter join
# ----------------------------------------------------------------------
class TestKernelSeries:
    def test_joins_the_four_counters_per_device_and_kernel(self):
        def counter(name, value, **labels):
            return {"name": name, "kind": "counter", "value": value,
                    "labels": {"device": "gpu0", "kernel": "spmm", **labels}}

        bundle = RunBundle(manifest={"metrics": [
            counter("kernel.busy_seconds", 0.25),
            counter("kernel.busy_seconds", 0.5, label="b"),
            counter("kernel.flops", 1e9),
            counter("kernel.bytes_moved", 4e6),
            counter("kernel.invocations", 3),
            {"name": "kernel.invocations", "kind": "counter", "value": 1,
             "labels": {"device": "cpu0", "kernel": "free"}},
            {"name": "kernel.busy_seconds", "kind": "gauge", "value": 9.0,
             "labels": {"device": "gpu0", "kernel": "spmm"}},
        ]})
        assert bundle.kernel_series() == {
            ("gpu0", "spmm"): {"seconds": 0.75, "flops": 1e9,
                               "bytes": 4e6, "launches": 3.0},
            ("cpu0", "free"): {"seconds": 0.0, "flops": 0.0,
                               "bytes": 0.0, "launches": 1.0},
        }

    def test_roofline_reads_the_join_sorted_by_seconds(self, analyzed_run):
        out, payload = analyzed_run
        series = load_run_bundle(out).kernel_series()
        assert {(e["device"], e["kernel"]): e["seconds"]
                for e in payload["roofline"]["kernels"]} == \
            {key: row["seconds"] for key, row in series.items()}
        seconds = [e["seconds"] for e in payload["roofline"]["kernels"]]
        assert seconds == sorted(seconds, reverse=True)


# ----------------------------------------------------------------------
# bench-gate attribution hints
# ----------------------------------------------------------------------
class TestGateHints:
    @pytest.fixture(scope="class")
    def swept_cell(self):
        cell = SweepCell("conv", "dglite", "gcn", "ppi", 0.5)
        return run_cell(cell, seeds=(0,))

    def test_cells_record_attribution(self, swept_cell):
        attribution = swept_cell["attribution"]
        assert attribution["seed"] == 0
        assert attribution["phases"]
        assert attribution["kernel_families"]

    def test_slowdown_surfaces_in_hints(self, swept_cell, scale_cell):
        artifact = {"schema": "repro.bench.sweep/2", "area": "kernels",
                    "seeds": [0], "provenance": {}, "cells": [swept_cell]}
        doctored = scale_cell(artifact, swept_cell["id"], 2.0)
        result = compare_artifacts(artifact, doctored)
        assert not result.passed
        hints = [line for line in result.moved if " attribution: " in line]
        assert any("grown" in hint for hint in hints)

    def test_hints_empty_without_attribution(self):
        assert attribution_hints({}, {}) == ()

    def test_unchanged_attribution_notes_it(self, swept_cell):
        (hint,) = attribution_hints(swept_cell, swept_cell)
        assert hint.startswith("attribution unchanged")
        assert "wall" not in hint

    def test_hints_capped_per_axis(self, swept_cell, scale_cell):
        artifact = {"cells": [swept_cell]}
        (doubled,) = scale_cell(artifact, swept_cell["id"], 2.0)["cells"]
        phase, family = attribution_hints(swept_cell, doubled, per_axis=1)
        assert phase.startswith("phase ") and " grown: " in phase
        assert family.startswith("kernel family ") and " grown: " in family

    def test_dropped_phase_is_named_vanished(self, swept_cell):
        fresh = json.loads(json.dumps(swept_cell))
        dropped = sorted(fresh["attribution"]["phases"])[0]
        del fresh["attribution"]["phases"][dropped]
        hints = attribution_hints(swept_cell, fresh)
        assert any(hint.startswith(f"phase {dropped} vanished: ")
                   for hint in hints)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _truncate_trace(run_dir):
    trace = run_dir / "trace.json"
    trace.write_text(trace.read_text()[:100])


def _append_bad_event(run_dir):
    with (run_dir / "events.jsonl").open("a") as events:
        events.write("not json\n")


class TestCli:
    def test_profile_analyze_and_diff(self, analyzed_run, capsys):
        out, _ = analyzed_run
        assert cli_main(["profile", "analyze", str(out)]) == 0
        assert "critical path:" in capsys.readouterr().out
        assert cli_main(["profile", "diff", str(out), str(out)]) == 0
        assert "identical on the virtual clock" in capsys.readouterr().out

    def test_profile_analyze_missing_dir_fails(self, tmp_path, capsys):
        assert cli_main(["profile", "analyze", str(tmp_path / "nope")]) == 1
        assert "not a telemetry directory" in capsys.readouterr().out

    def test_profile_diff_writes_artifact(self, analyzed_run, tmp_path,
                                          capsys):
        out, _ = analyzed_run
        dest = tmp_path / "diff.json"
        assert cli_main(["profile", "diff", str(out), str(out),
                         "--out", str(dest)]) == 0
        assert PROFILE.validate(load(dest)) == []

    def test_profile_analyze_prints_the_run_summary(self, analyzed_run,
                                                    tmp_path, capsys):
        out, _ = analyzed_run
        assert cli_main(["profile", "analyze", str(out),
                         "--out", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        manifest = load(out / "run.json")
        assert text.startswith(f"{manifest['label']} / ppi "
                               "(command=train, seed=0)\n")
        for phase, fraction in manifest["phase_fractions"].items():
            assert f"  {phase:<15}" in text
            assert f"{100 * fraction:>5.1f}%" in text
        assert f"metrics: {len(manifest['metrics'])}" in text
        assert "energy " in text and "gpu power  p50 " in text
        # The roofline table stands in for the old kernel breakdown.
        assert "matmul.bwd" in text and "%peak" in text

    @staticmethod
    def _damaged(analyzed_run, tmp_path, damage):
        copy = tmp_path / "damaged"
        shutil.copytree(analyzed_run[0], copy)
        damage(copy)
        return str(copy)

    @pytest.mark.parametrize("damage, problem", [
        (_truncate_trace, "trace.json: unparseable"),
        (_append_bad_event, "events.jsonl: unparseable"),
        (lambda d: (d / "metrics.prom").unlink(), "metrics.prom: missing"),
    ], ids=["truncated-trace", "bad-events-line", "missing-metrics"])
    def test_profile_analyze_rejects_a_damaged_bundle(
            self, analyzed_run, tmp_path, capsys, damage, problem):
        damaged = self._damaged(analyzed_run, tmp_path, damage)
        assert cli_main(["profile", "analyze", damaged]) == 1
        text = capsys.readouterr().out
        assert f"problem(s) in {damaged}:" in text
        assert f"\n  {problem}" in text
        assert "Traceback" not in text

    @pytest.mark.parametrize("side", ["base", "current"])
    def test_profile_diff_rejects_a_bad_events_line(
            self, analyzed_run, tmp_path, capsys, side):
        damaged = self._damaged(analyzed_run, tmp_path, _append_bad_event)
        good = str(analyzed_run[0])
        argv = [damaged, good] if side == "base" else [good, damaged]
        assert cli_main(["profile", "diff", *argv]) == 1
        text = capsys.readouterr().out
        assert f"problem(s) in {damaged}:" in text
        assert "events.jsonl: unparseable" in text
        assert "Traceback" not in text

    def test_profile_analyze_lists_every_problem(self, tmp_path, capsys):
        (tmp_path / "run.json").write_text("{}")
        assert cli_main(["profile", "analyze", str(tmp_path)]) == 1
        text = capsys.readouterr().out
        assert "4 problem(s)" in text
        for line in ("run.json: unknown schema None", "events.jsonl: missing",
                     "trace.json: missing", "metrics.prom: missing"):
            assert f"\n  {line}" in text
