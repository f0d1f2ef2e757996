"""Tests for Tensor arithmetic, shapes, and autograd plumbing."""

import numpy as np
import pytest

from repro.errors import AutogradError, PlacementError
from repro.tensor.tensor import Tensor, cat, no_grad, ones, stack, zeros


def t(data, **kw):
    return Tensor(np.asarray(data, dtype=np.float32), **kw)


class TestConstruction:
    def test_float_arrays_become_float32(self):
        assert Tensor(np.ones(3, dtype=np.float64)).dtype == np.float32

    def test_int_arrays_become_int64(self):
        assert Tensor(np.array([1, 2, 3], dtype=np.int32)).dtype == np.int64

    def test_shape_and_len(self):
        x = zeros((3, 4))
        assert x.shape == (3, 4)
        assert len(x) == 3

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            t([1.0, 2.0]).item()
        assert t([2.5]).item() == pytest.approx(2.5)


class TestArithmetic:
    def test_add_broadcasts(self):
        x = t(np.ones((2, 3)))
        b = t(np.arange(3))
        assert np.allclose((x + b).data, 1.0 + np.arange(3))

    def test_scalar_coercion(self):
        x = t([1.0, 2.0])
        assert np.allclose((x + 1).data, [2.0, 3.0])
        assert np.allclose((2 * x).data, [2.0, 4.0])
        assert np.allclose((1 - x).data, [0.0, -1.0])
        assert np.allclose((x / 2).data, [0.5, 1.0])
        assert np.allclose((2 / x).data, [2.0, 1.0])

    def test_pow(self):
        x = t([2.0, 3.0])
        assert np.allclose((x ** 2).data, [4.0, 9.0])

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(TypeError):
            t([1.0]) ** t([2.0])

    def test_matmul(self):
        a = t(np.arange(6).reshape(2, 3))
        b = t(np.arange(12).reshape(3, 4))
        assert np.allclose((a @ b).data, a.data @ b.data)

    def test_neg(self):
        assert np.allclose((-t([1.0, -2.0])).data, [-1.0, 2.0])


class TestShapes:
    def test_reshape(self):
        x = t(np.arange(6).astype(np.float32))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).shape == (3, 2)

    def test_cat_along_axes(self):
        a, b = t(np.ones((2, 3))), t(np.zeros((1, 3)))
        assert cat([a, b], axis=0).shape == (3, 3)
        c = cat([t(np.ones((2, 1))), t(np.zeros((2, 2)))], axis=1)
        assert c.shape == (2, 3)

    def test_cat_empty_rejected(self):
        with pytest.raises(ValueError):
            cat([])

    def test_stack(self):
        a, b = t(np.ones(3)), t(np.zeros(3))
        assert stack([a, b]).shape == (2, 3)

    def test_index_select(self):
        x = t(np.arange(12).reshape(4, 3))
        out = x.index_select(np.array([2, 0, 2]))
        assert np.allclose(out.data, x.data[[2, 0, 2]])

    def test_getitem_with_int_array_gathers(self):
        x = t(np.arange(12).reshape(4, 3))
        out = x[np.array([1, 3])]
        assert out.shape == (2, 3)


class TestReductions:
    def test_sum_axes(self):
        x = t(np.arange(6).reshape(2, 3))
        assert x.sum().item() == pytest.approx(15.0)
        assert np.allclose(x.sum(axis=0).data, [3, 5, 7])
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean(self):
        x = t(np.arange(6).reshape(2, 3))
        assert x.mean().item() == pytest.approx(2.5)
        assert np.allclose(x.mean(axis=0).data, [1.5, 2.5, 3.5])

    def test_max(self):
        x = t([[1.0, 5.0], [3.0, 2.0]])
        assert x.max().item() == pytest.approx(5.0)
        assert np.allclose(x.max(axis=0).data, [3.0, 5.0])


class TestAutogradPlumbing:
    def test_backward_requires_grad(self):
        with pytest.raises(AutogradError):
            t([1.0]).backward()

    def test_backward_requires_scalar_without_grad_arg(self):
        x = t([1.0, 2.0], requires_grad=True)
        with pytest.raises(AutogradError):
            (x * 2).backward()

    def test_grad_accumulates_across_uses(self):
        x = t([2.0], requires_grad=True)
        y = x * 3 + x * 4  # dy/dx = 7
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_zero_grad(self):
        x = t([2.0], requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_no_grad_blocks_graph(self):
        x = t([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_backward_frees_graph(self):
        x = t([1.0], requires_grad=True)
        y = x * 2
        z = y * 3
        z.backward()
        assert y._prev == ()

    def test_deep_chain_no_recursion_error(self):
        x = t([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()
        assert x.grad is not None

    def test_diamond_graph_gradient(self):
        x = t([3.0], requires_grad=True)
        a = x * 2
        b = x * 5
        y = a + b
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)


class TestPlacement:
    def test_mixed_devices_rejected(self, machine):
        a = Tensor(np.ones(4, dtype=np.float32), device=machine.cpu)
        b = Tensor(np.ones(4, dtype=np.float32), device=machine.gpu)
        with pytest.raises(PlacementError):
            a + b

    def test_host_tensor_adopts_device(self, machine):
        a = Tensor(np.ones(4, dtype=np.float32), device=machine.cpu)
        b = Tensor(np.ones(4, dtype=np.float32))
        assert (a + b).device is machine.cpu

    def test_work_scale_propagates_max(self, machine):
        a = Tensor(np.ones(4, dtype=np.float32), device=machine.cpu, work_scale=8.0)
        b = Tensor(np.ones(4, dtype=np.float32), device=machine.cpu, work_scale=2.0)
        assert (a * b).work_scale == 8.0

    def test_device_tensor_registers_logical_memory(self, machine):
        x = Tensor(np.ones((10, 10), dtype=np.float32), device=machine.cpu,
                   work_scale=3.0)
        assert machine.cpu.memory.in_use >= x.nbytes * 3

    def test_ops_on_device_advance_clock(self, machine):
        a = Tensor(np.ones((100, 100), dtype=np.float32), device=machine.cpu)
        before = machine.clock.now
        _ = a @ a
        assert machine.clock.now > before

    def test_host_ops_do_not_touch_clock(self, machine):
        a = Tensor(np.ones((100, 100), dtype=np.float32))
        _ = a @ a
        assert machine.clock.now == 0.0
