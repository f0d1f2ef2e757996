"""Tests for Module / Parameter / Linear / Adam."""

import numpy as np
import pytest

from repro.tensor import functional as F
from repro.tensor.module import Dropout, Linear, Module, Parameter
from repro.tensor.optim import Adam
from repro.tensor.tensor import Tensor


class TestModule:
    def test_parameters_discovered_recursively(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 8)
                self.fc2 = Linear(8, 2)

        net = Net()
        names = dict(net.named_parameters())
        assert {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"} == set(names)
        assert len(net.parameters()) == 4

    def test_train_eval_propagates(self):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 2)
                self.drop = Dropout(0.5)

        net = Net()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self):
        lin = Linear(3, 2, seed=0)
        out = lin(Tensor(np.ones((1, 3), dtype=np.float32))).sum()
        out.backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_to_device_moves_parameters(self, machine):
        lin = Linear(3, 2, seed=0)
        lin.to(machine.cpu)
        assert all(p.device is machine.cpu for p in lin.parameters())

    def test_to_gpu_with_link_charges_transfer(self, machine):
        lin = Linear(64, 64, seed=0)
        lin.to(machine.cpu)
        before = machine.pcie.counters.bytes_h2d
        lin.to(machine.gpu, link=machine.pcie)
        moved = machine.pcie.counters.bytes_h2d - before
        assert moved >= 64 * 64 * 4


class TestLinear:
    def test_forward_shape(self):
        lin = Linear(4, 7, seed=0)
        out = lin(Tensor(np.ones((3, 4), dtype=np.float32)))
        assert out.shape == (3, 7)

    def test_no_bias(self):
        lin = Linear(4, 7, bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_seeded_init_is_deterministic(self):
        a, b = Linear(4, 4, seed=5), Linear(4, 4, seed=5)
        assert np.allclose(a.weight.data, b.weight.data)

    def test_different_seeds_differ(self):
        a, b = Linear(4, 4, seed=5), Linear(4, 4, seed=6)
        assert not np.allclose(a.weight.data, b.weight.data)


class TestOptimizers:
    def _loss_after(self, optimizer_factory, steps=60):
        rng = np.random.default_rng(0)
        lin = Linear(6, 3, seed=1)
        opt = optimizer_factory(lin.parameters())
        x = Tensor(rng.standard_normal((64, 6)).astype(np.float32))
        y = rng.integers(0, 3, 64)
        first = last = None
        for _ in range(steps):
            opt.zero_grad()
            loss = F.cross_entropy(lin(x), y)
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
            last = loss.item()
        return first, last

    def test_adam_reduces_loss(self):
        first, last = self._loss_after(lambda p: Adam(p, lr=0.05))
        assert last < first * 0.8

    def test_skips_params_without_grad(self):
        lin = Linear(4, 4, seed=0)
        opt = Adam(lin.parameters(), lr=0.1)
        weights = lin.weight.data.copy()
        opt.step()  # no grads anywhere
        assert np.allclose(lin.weight.data, weights)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam(Linear(2, 2).parameters(), lr=0.0)

    def test_step_charges_device_time(self, machine):
        lin = Linear(32, 32, seed=0)
        lin.to(machine.cpu)
        opt = Adam(lin.parameters(), lr=0.1)
        for p in opt.params:
            p.grad = np.ones_like(p.data)
        before = machine.clock.now
        opt.step()
        assert machine.clock.now > before
