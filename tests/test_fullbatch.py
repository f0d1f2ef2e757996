"""Tests for full-batch GraphSAGE training (Figures 22-24 workload)."""

import numpy as np
import pytest

from repro.errors import BenchmarkError
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.models.fullbatch import FullBatchTrainer, build_fullbatch_sage


def make(framework="dglite", device="cpu", dataset="ppi"):
    fw = get_framework(framework)
    machine = paper_testbed()
    fgraph = fw.load(dataset, machine, scale=0.3)
    net = build_fullbatch_sage(fw, fgraph, hidden=16, seed=0)
    return FullBatchTrainer(fw, fgraph, net, device=device), machine


class TestSetup:
    def test_invalid_device_rejected(self):
        trainer, _ = make()
        with pytest.raises(BenchmarkError):
            FullBatchTrainer(trainer.framework, trainer.fgraph, trainer.model,
                             device="npu")

    def test_gpu_setup_charges_movement(self):
        trainer, machine = make(device="gpu")
        trainer.setup()
        assert trainer.tracer.phase_rollup()["data_movement"] > 0
        assert machine.pcie.counters.bytes_h2d > 0

    def test_cpu_setup_moves_nothing(self):
        trainer, machine = make(device="cpu")
        trainer.setup()
        assert machine.pcie.counters.bytes_h2d == 0


class TestTraining:
    def test_losses_finite_and_decreasing(self):
        trainer, _ = make()
        losses = trainer.train_epochs(8)
        assert len(losses) == 8
        assert all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_training_phase_accumulates(self):
        trainer, _ = make()
        trainer.train_epochs(2)
        assert trainer.epoch_time() > 0

    def test_setup_is_implicit(self):
        trainer, _ = make()
        losses = trainer.train_epochs(1)  # no explicit setup()
        assert len(losses) == 1

    def test_multilabel_dataset_uses_bce(self):
        trainer, _ = make(dataset="ppi")
        from repro.tensor import functional as F
        assert trainer.loss_fn is F.binary_cross_entropy_with_logits


class TestPaperShapes:
    def test_gpu_epoch_faster_than_cpu(self):
        cpu, m_cpu = make(device="cpu")
        gpu, m_gpu = make(device="gpu")
        cpu.train_epochs(1)
        gpu.train_epochs(1)
        assert gpu.epoch_time() < cpu.epoch_time()

    def test_dgl_cpu_faster_than_pyg_cpu(self):
        """Observation from Figure 22 on the aggregation-heavy datasets."""
        dgl, _ = make(framework="dglite", device="cpu", dataset="reddit")
        pyg, _ = make(framework="pyglite", device="cpu", dataset="reddit")
        dgl.train_epochs(1)
        pyg.train_epochs(1)
        assert dgl.epoch_time() < pyg.epoch_time()
