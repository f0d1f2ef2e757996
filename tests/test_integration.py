"""End-to-end integration tests: whole pipelines, accounting consistency.

These tests exercise the full stack in one pass each and assert the
invariants that hold *across* components: phase totals match the clock,
the energy monitor's window matches the experiment, ledgers drain after
teardown, traces cover the busy time, and checkpoints hand models across
pipeline stages without drift.
"""

import gc
import json

import numpy as np
import pytest

from repro.bench.harness import run_training_experiment
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.models.checkpoint import load_checkpoint, save_checkpoint
from repro.models.evaluate import evaluate
from repro.models.fullbatch import FullBatchTrainer, build_fullbatch_sage
from repro.models.graphsage import build_graphsage, graphsage_sampler
from repro.models.trainer import MiniBatchTrainer, TrainConfig
from repro.power.carbon import carbon_from_energy
from repro.power.monitor import EnergyMonitor
from repro.profiling.kernel_report import group_by_family, kernel_breakdown
from repro.telemetry.spans import PHASE_CATEGORY, SpanTracer
from repro.telemetry.exporters import write_merged_trace


class TestAccountingConsistency:
    @pytest.mark.parametrize("model", ["graphsage", "clustergcn", "graphsaint"])
    def test_phases_fill_the_clock(self, model):
        """Phase seconds must equal elapsed virtual time (nothing leaks)."""
        machine = paper_testbed()
        monitor = EnergyMonitor(machine, interval=0.1)
        tracer = SpanTracer(machine.clock)
        fw = get_framework("dglite")
        monitor.start()
        with tracer.span("data_loading", PHASE_CATEGORY):
            fgraph = fw.load("ppi", machine, scale=0.3)
        if model == "graphsage":
            sampler = fw.neighbor_sampler(fgraph, fanouts=(4, 4),
                                          batch_size=64, seed=0)
            from repro.models.base import two_layer_net
            net = two_layer_net(fw, "sage", fgraph.stats.num_features, 16,
                                fgraph.stats.num_classes, style="blocks", seed=0)
        elif model == "clustergcn":
            sampler = fw.cluster_sampler(fgraph, seed=0)
            from repro.models.base import two_layer_net
            net = two_layer_net(fw, "gcn", fgraph.stats.num_features, 16,
                                fgraph.stats.num_classes, style="subgraph", seed=0)
        else:
            sampler = fw.saint_sampler(fgraph, seed=0)
            from repro.models.base import two_layer_net
            net = two_layer_net(fw, "gcn", fgraph.stats.num_features, 16,
                                fgraph.stats.num_classes, style="subgraph", seed=0)
        config = TrainConfig(epochs=2, representative_batches=2)
        result = MiniBatchTrainer(fw, fgraph, sampler, net, config,
                                  tracer=tracer).run()
        report = monitor.stop()

        total_phases = sum(tracer.phase_rollup().values())
        assert total_phases == pytest.approx(machine.clock.now, rel=0.02)
        assert report.duration == pytest.approx(machine.clock.now, rel=1e-6)
        assert result.total_time == pytest.approx(total_phases, rel=1e-6)

    def test_busy_never_exceeds_wall(self):
        machine = paper_testbed()
        fw = get_framework("pyglite")
        fgraph = fw.load("flickr", machine, scale=0.5)
        sampler = graphsage_sampler(fw, fgraph, seed=0)
        net = build_graphsage(fw, fgraph, hidden=32, seed=0)
        MiniBatchTrainer(fw, fgraph, sampler, net,
                         TrainConfig(epochs=1, placement="cpugpu",
                                     representative_batches=2)).run()
        for device in (machine.cpu.name, machine.gpu.name, "pcie"):
            assert machine.clock.busy_time(device) <= machine.clock.now + 1e-9

    def test_kernel_families_sum_to_device_busy(self):
        machine = paper_testbed()
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        net = build_fullbatch_sage(fw, fgraph, hidden=16, seed=0)
        FullBatchTrainer(fw, fgraph, net, device="cpu").train_epochs(2)
        grouped = group_by_family(machine)
        total_by_family = sum(grouped.values())
        counters_total = machine.cpu.counters.busy_seconds
        assert total_by_family == pytest.approx(counters_total, rel=1e-6)
        entries = kernel_breakdown(machine)
        assert sum(e.seconds for e in entries) == pytest.approx(
            counters_total, rel=1e-6)

    def test_memory_returns_to_baseline_after_teardown(self):
        machine = paper_testbed()
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        baseline = machine.cpu.memory.in_use  # features + adj pinned
        sampler = fw.neighbor_sampler(fgraph, fanouts=(4, 4), batch_size=64,
                                      seed=0)
        net = build_graphsage(fw, fgraph, hidden=16, seed=0)
        MiniBatchTrainer(fw, fgraph, sampler, net,
                         TrainConfig(epochs=1, representative_batches=2)).run()
        del net, sampler
        gc.collect()
        # Batch tensors and autograd intermediates must all be released.
        assert machine.cpu.memory.in_use <= baseline * 1.05


class TestFullPipeline:
    def test_train_checkpoint_evaluate_trace_carbon(self, tmp_path):
        """The whole artifact lifecycle in one pass."""
        machine = paper_testbed()
        monitor = EnergyMonitor(machine, interval=0.1)
        fw = get_framework("dglite")
        monitor.start()
        fgraph = fw.load("flickr", machine, scale=0.5)
        net = build_fullbatch_sage(fw, fgraph, hidden=32, dropout=0.0, seed=0)
        trainer = FullBatchTrainer(fw, fgraph, net, device="gpu", lr=5e-3)
        trainer.train_epochs(20)
        report = monitor.stop()

        # 1. the model learned (evaluate on the device it trained on)
        metric = evaluate(fw, fgraph, net, device="gpu")
        assert metric.val > 0.5

        # 2. checkpoint -> fresh model -> same metric
        save_checkpoint(tmp_path / "model.npz", net, trainer.optimizer,
                        metadata={"dataset": "flickr"})
        clone = build_fullbatch_sage(fw, fgraph, hidden=32, dropout=0.0,
                                     seed=123)
        meta = load_checkpoint(tmp_path / "model.npz", clone)
        assert meta["dataset"] == "flickr"
        assert evaluate(fw, fgraph, clone).val == pytest.approx(metric.val)

        # 3. energy -> carbon, consistent units
        carbon = carbon_from_energy(report, grid="texas")
        assert carbon.grams_co2eq > 0
        assert carbon.energy_kwh == pytest.approx(
            report.total_energy / 3.6e6)

        # 4. trace covers the timeline
        path = write_merged_trace(tmp_path / "trace.json", machine.clock,
                                  tracer=None)
        events = json.loads(path.read_text())["traceEvents"]
        assert len(events) > 20

    def test_harness_and_manual_pipeline_agree(self):
        """run_training_experiment == hand-assembled pipeline, exactly."""
        auto = run_training_experiment("dglite", "ppi", "graphsage",
                                       placement="cpu", epochs=2,
                                       representative_batches=2, seed=0,
                                       dataset_scale=0.3)
        machine = paper_testbed()
        tracer = SpanTracer(machine.clock)
        fw = get_framework("dglite")
        with tracer.span("data_loading", PHASE_CATEGORY):
            fgraph = fw.load("ppi", machine, scale=0.3)
        sampler = graphsage_sampler(fw, fgraph, mode="cpu", seed=0)
        net = build_graphsage(fw, fgraph, seed=0)
        manual = MiniBatchTrainer(
            fw, fgraph, sampler, net,
            TrainConfig(epochs=2, representative_batches=2, seed=0),
            tracer=tracer,
        ).run()
        assert sum(manual.phases.values()) == pytest.approx(
            auto.total_time, rel=1e-6)
        assert manual.losses == pytest.approx(auto.losses, rel=1e-6)

    def test_multilabel_pipeline(self):
        """Yelp (multi-label, BCE) end-to-end with PyGLite."""
        machine = paper_testbed()
        fw = get_framework("pyglite")
        fgraph = fw.load("yelp", machine, scale=0.3)
        sampler = fw.saint_sampler(fgraph, seed=0)
        from repro.models.base import two_layer_net
        net = two_layer_net(fw, "gcn", fgraph.stats.num_features, 32,
                            fgraph.stats.num_classes, style="subgraph",
                            dropout=0.0, seed=0)
        result = MiniBatchTrainer(
            fw, fgraph, sampler, net,
            TrainConfig(epochs=4, representative_batches=4, lr=5e-3),
        ).run()
        assert result.losses[-1] < result.losses[0]
        report = evaluate(fw, fgraph, net)
        assert report.metric == "micro_f1"
        assert 0.0 <= report.test <= 1.0
