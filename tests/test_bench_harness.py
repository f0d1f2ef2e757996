"""Tests for the experiment harness."""

import dataclasses

import numpy as np
import pytest

from repro.bench import harness
from repro.bench.format import format_series
from repro.bench.harness import (
    measure_conv_forward,
    measure_data_loader,
    measure_sampler_epoch,
    run_fullbatch_experiment,
    run_training_experiment,
)
from repro.errors import BenchmarkError
from repro.hardware.machine import Machine
from repro.hardware.specs import PAPER_CPU, PAPER_GPU, PAPER_PCIE

SMALL = dict(dataset_scale=0.3)


class TestTrainingExperiment:
    def test_returns_breakdown_and_energy(self):
        result = run_training_experiment("dglite", "ppi", "graphsage",
                                         placement="cpu", epochs=1,
                                         representative_batches=2, **SMALL)
        assert result.label == "DGL-CPU"
        assert result.total_time > 0
        assert result.total_energy > 0
        assert result.energy.duration == pytest.approx(result.total_time, rel=0.01)
        assert {"data_loading", "sampling", "training"} <= set(result.phases)

    def test_unknown_model_rejected(self):
        with pytest.raises(BenchmarkError):
            run_training_experiment("dglite", "ppi", "transformer")

    def test_gpu_placement_restricted_to_graphsage(self):
        with pytest.raises(BenchmarkError):
            run_training_experiment("dglite", "ppi", "clustergcn",
                                    placement="gpu", **SMALL)

    def test_labels(self):
        result = run_training_experiment("pyglite", "ppi", "graphsaint",
                                         placement="cpugpu", epochs=1,
                                         representative_batches=1, **SMALL)
        assert result.label == "PyG-CPUGPU"

    def test_preload_label(self):
        result = run_training_experiment("dglite", "ppi", "graphsage",
                                         placement="cpugpu", preload=True,
                                         epochs=1, representative_batches=1,
                                         **SMALL)
        assert result.label == "DGL-CPUGPU+preload"

    def test_experiments_are_independent(self):
        a = run_training_experiment("dglite", "ppi", "graphsage", epochs=1,
                                    representative_batches=1, **SMALL)
        b = run_training_experiment("dglite", "ppi", "graphsage", epochs=1,
                                    representative_batches=1, **SMALL)
        assert a.total_time == pytest.approx(b.total_time, rel=1e-6)


class TestFullbatchExperiment:
    def test_per_epoch_training_time(self):
        result = run_fullbatch_experiment("dglite", "ppi", device="cpu",
                                          epochs=4, **SMALL)
        assert result.phases["training"] > 0
        assert len(result.losses) == 4

    def test_gpu_device(self):
        result = run_fullbatch_experiment("pyglite", "ppi", device="gpu",
                                          epochs=1, **SMALL)
        assert result.phases.get("data_movement", 0) > 0


class TestFunctionalMeasurements:
    def test_data_loader_positive(self):
        assert measure_data_loader("dglite", "ppi", **SMALL) > 0

    def test_sampler_epoch_fields(self):
        out = measure_sampler_epoch("dglite", "ppi", "neighbor", **SMALL)
        assert out["epoch"] > 0
        assert out["batches"] >= 1

    def test_cluster_one_time_includes_partition(self):
        out = measure_sampler_epoch("pyglite", "ppi", "cluster", **SMALL)
        assert out["one_time"] > 0

    def test_unknown_sampler_rejected(self):
        with pytest.raises(BenchmarkError):
            measure_sampler_epoch("dglite", "ppi", "frontier", **SMALL)

    @pytest.mark.parametrize("reps", [0, -3])
    def test_sampler_epoch_needs_a_representative_batch(self, reps):
        """No batch drawn is no Fig 4 epoch, not a zero-second one."""
        with pytest.raises(BenchmarkError, match=rf"got {reps}$"):
            measure_sampler_epoch("dglite", "ppi", "neighbor",
                                  representative_batches=reps, **SMALL)

    def test_conv_forward_cpu_gpu(self):
        cpu = measure_conv_forward("dglite", "ppi", "gcn", device="cpu", **SMALL)
        gpu = measure_conv_forward("dglite", "ppi", "gcn", device="gpu", **SMALL)
        assert cpu.phases["forward"] > 0
        assert gpu.phases["forward"] > 0

    def test_conv_forward_oom_reported_not_raised(self):
        result = measure_conv_forward("pyglite", "reddit", "gat", device="gpu")
        assert result.oom
        assert "out of memory" in result.error


class TestNoCyclicGarbage:
    """The harness does not call gc.collect(); nothing it runs may need it."""

    CASES = {
        "conv-fused-gatv2": lambda: measure_conv_forward(
            "dglite", "ppi", "gatv2", device="gpu", **SMALL),
        "conv-unfused-gatv2": lambda: measure_conv_forward(
            "pyglite", "ppi", "gatv2", device="gpu", **SMALL),
        "fullbatch": lambda: run_fullbatch_experiment(
            "pyglite", "ppi", device="gpu", epochs=2, **SMALL),
        "train-serial": lambda: run_training_experiment(
            "dglite", "ppi", "graphsage", placement="cpugpu", epochs=1,
            representative_batches=2, **SMALL),
        "train-depth-4": lambda: run_training_experiment(
            "dglite", "ppi", "graphsage", placement="cpugpu", epochs=1,
            representative_batches=2, pipeline="depth-4", **SMALL),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_entry_point_leaves_no_cycles(self, cyclic_garbage, case):
        assert cyclic_garbage(self.CASES[case]) == []

    @pytest.mark.parametrize("pipeline", ["off", "depth-4"])
    def test_oom_with_a_live_tape_leaves_no_cycles(self, cyclic_garbage,
                                                   monkeypatch, pipeline):
        """A charged OOM in the middle of a training step abandons a tape
        that backward() never gets to free."""
        small_gpu = dataclasses.replace(PAPER_GPU, mem_capacity=20_000_000)
        monkeypatch.setattr(harness, "paper_testbed",
                            lambda: Machine(PAPER_CPU, small_gpu, PAPER_PCIE))
        results = []

        def run():
            results.append(run_training_experiment(
                "dglite", "ppi", "graphsage", placement="cpugpu", epochs=1,
                representative_batches=2, pipeline=pipeline, **SMALL))

        assert cyclic_garbage(run) == []
        assert results[0].oom and "out of memory" in results[0].error


class TestFormatting:
    def test_format_series(self):
        text = format_series("Fig X", {"DGL": {"ppi": 1.0}, "PyG": {"ppi": 2.0}})
        assert "Fig X" in text and "DGL" in text and "ppi" in text

    def test_missing_cells_render_dash(self):
        text = format_series("t", {"a": {"x": 1.0}, "b": {}})
        assert "-" in text

    def test_long_column_names_stay_aligned(self):
        # "ogbn-products" (13 chars) used to overflow the numeric-only
        # 12-char column width and shear every header off its values.
        text = format_series("Fig", {"DGL": {"ogbn-products": 1.0,
                                             "ppi": 2.0}})
        header, row = text.splitlines()[2:4]
        # Golden layout: 10-char label gutter, then 15-char right-aligned
        # columns (widest name, 13 chars, + 2 padding).
        assert header == " " * 10 + "  ogbn-products" + " " * 12 + "ppi"
        assert row == "DGL" + " " * 7 + " " * 9 + "1.0000" + " " * 9 + "2.0000"
        # Every value's last digit lines up under its column name's last char.
        assert header.index("ogbn-products") + len("ogbn-products") \
            == row.index("1.0000") + len("1.0000")
        assert header.rstrip().endswith("ppi")
        assert len(header) == len(row)
