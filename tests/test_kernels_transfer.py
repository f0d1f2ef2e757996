"""Tests for host <-> device movement charging."""

import numpy as np
import pytest

from repro.kernels.adj import SparseAdj
from repro.kernels.transfer import adj_to_device, to_device
from repro.tensor.tensor import Tensor


class TestTensorTransfer:
    def test_h2d_charges_logical_bytes(self, machine):
        x = Tensor(np.ones((100, 10), dtype=np.float32), device=machine.cpu,
                   work_scale=8.0)
        before = machine.pcie.counters.bytes_h2d
        moved = to_device(x, machine.gpu, machine.pcie)
        assert moved.device is machine.gpu
        assert machine.pcie.counters.bytes_h2d - before == pytest.approx(
            x.nbytes * 8.0
        )

    def test_d2h_direction(self, machine):
        x = Tensor(np.ones((10, 10), dtype=np.float32), device=machine.gpu)
        to_device(x, machine.cpu, machine.pcie)
        assert machine.pcie.counters.bytes_d2h > 0
        assert machine.pcie.counters.bytes_h2d == 0

    def test_same_device_is_noop(self, machine):
        x = Tensor(np.ones(4, dtype=np.float32), device=machine.cpu)
        assert to_device(x, machine.cpu, machine.pcie) is x
        assert machine.clock.now == 0.0

    def test_without_link_no_charge(self, machine):
        x = Tensor(np.ones(4, dtype=np.float32), device=machine.cpu)
        moved = to_device(x, machine.gpu)
        assert moved.device is machine.gpu
        assert machine.pcie.counters.bytes_h2d == 0

    def test_moved_tensor_registers_target_memory(self, machine):
        x = Tensor(np.ones((50, 50), dtype=np.float32), device=machine.cpu,
                   work_scale=2.0)
        before = machine.gpu.memory.in_use
        moved = to_device(x, machine.gpu, machine.pcie)  # hold the reference
        assert machine.gpu.memory.in_use - before >= x.nbytes * 2
        del moved  # finalizer releases the GPU allocation
        assert machine.gpu.memory.in_use == before

    def test_work_scale_preserved(self, machine):
        x = Tensor(np.ones(4, dtype=np.float32), device=machine.cpu, work_scale=5.0)
        assert to_device(x, machine.gpu).work_scale == 5.0


class TestAdjTransfer:
    def test_structure_bytes_charged(self, machine):
        adj = SparseAdj(np.array([0, 1]), np.array([1, 0]), 2, 2,
                        device=machine.cpu, edge_scale=100.0, node_scale=50.0)
        before = machine.pcie.counters.bytes_h2d
        placed = adj_to_device(adj, machine.gpu, machine.pcie)
        assert placed.device is machine.gpu
        assert machine.pcie.counters.bytes_h2d - before == pytest.approx(
            adj.structure_nbytes()
        )

    def test_noop_when_already_there(self, machine):
        adj = SparseAdj(np.array([0]), np.array([0]), 1, 1, device=machine.gpu)
        assert adj_to_device(adj, machine.gpu, machine.pcie) is adj
