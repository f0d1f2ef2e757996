"""Tests for model evaluation (full-graph inference + metrics)."""

import math

import numpy as np
import pytest

from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.models.base import two_layer_net
from repro.models.evaluate import EvalReport, evaluate, full_graph_logits
from repro.models.fullbatch import FullBatchTrainer, build_fullbatch_sage


@pytest.fixture
def setup(machine):
    fw = get_framework("dglite")
    fgraph = fw.load("flickr", machine, scale=0.3)
    net = two_layer_net(fw, "gcn", fgraph.stats.num_features, 16,
                        fgraph.stats.num_classes, style="subgraph",
                        dropout=0.0, seed=0)
    return fw, fgraph, net


class TestFullGraphLogits:
    def test_shape(self, setup):
        fw, fgraph, net = setup
        logits = full_graph_logits(fw, fgraph, net)
        assert logits.shape == (fgraph.num_nodes, fgraph.stats.num_classes)

    def test_charges_inference_time(self, setup):
        fw, fgraph, net = setup
        before = fgraph.machine.clock.now
        full_graph_logits(fw, fgraph, net)
        assert fgraph.machine.clock.now > before

    def test_eval_mode_is_deterministic(self, setup):
        fw, fgraph, net = setup
        a = full_graph_logits(fw, fgraph, net)
        b = full_graph_logits(fw, fgraph, net)
        assert np.allclose(a.data, b.data)

    def test_blocknet_evaluates_on_square_adjacency(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        from repro.models.graphsage import build_graphsage
        net = build_graphsage(fw, fgraph, hidden=16, seed=0)
        logits = full_graph_logits(fw, fgraph, net)
        assert logits.shape == (fgraph.num_nodes, fgraph.stats.num_classes)


class TestEvaluate:
    def test_report_fields(self, setup):
        fw, fgraph, net = setup
        report = evaluate(fw, fgraph, net)
        assert report.metric == "accuracy"
        assert 0.0 <= report.train <= 1.0
        assert 0.0 <= report.test <= 1.0

    def test_multilabel_uses_micro_f1(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        net = two_layer_net(fw, "gcn", fgraph.stats.num_features, 16,
                            fgraph.stats.num_classes, style="subgraph",
                            dropout=0.0, seed=0)
        report = evaluate(fw, fgraph, net)
        assert report.metric == "micro_f1"

    def test_training_improves_metric(self, machine):
        """End-to-end: full-batch training raises eval accuracy well above
        the untrained model (features correlate with labels by design)."""
        fw = get_framework("dglite")
        fgraph = fw.load("flickr", machine, scale=0.3)
        net = build_fullbatch_sage(fw, fgraph, hidden=32, dropout=0.0, seed=0)
        before = evaluate(fw, fgraph, net).val
        trainer = FullBatchTrainer(fw, fgraph, net, device="cpu", lr=5e-3)
        trainer.train_epochs(40)
        after = evaluate(fw, fgraph, net).val
        assert after > before + 0.1

    def test_nan_for_empty_split(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("flickr", machine, scale=0.3)
        saved = fgraph.graph.val_mask.copy()
        fgraph.graph.val_mask[:] = False  # graphs are cached: restore below
        try:
            net = two_layer_net(fw, "gcn", fgraph.stats.num_features, 8,
                                fgraph.stats.num_classes, style="subgraph", seed=0)
            report = evaluate(fw, fgraph, net)
            assert math.isnan(report.val)
        finally:
            fgraph.graph.val_mask[:] = saved
