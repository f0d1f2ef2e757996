"""Gradient checks: every tensor op against central finite differences."""

import numpy as np
import pytest

from repro.tensor import functional as F
from repro.tensor.optim import SGD, Adam
from repro.tensor.tensor import Tensor, cat

RNG = np.random.default_rng(42)
EPS = 1e-2
TOL = 2e-2


def gradcheck(build, *shapes, positive=False):
    """Check d(sum of op output)/d(input_i) against finite differences."""
    arrays = []
    for shape in shapes:
        arr = RNG.random(shape).astype(np.float32) + (0.5 if positive else -0.5)
        arrays.append(arr)

    def run(arrs):
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrs]
        out = build(*tensors)
        return tensors, out

    tensors, out = run(arrays)
    loss = out.sum() if out.data.size > 1 else out
    loss.backward()

    for i, arr in enumerate(arrays):
        flat_index = np.unravel_index(RNG.integers(arr.size), arr.shape)
        perturbed = [a.copy() for a in arrays]
        perturbed[i][flat_index] += EPS
        _, up = run(perturbed)
        perturbed[i][flat_index] -= 2 * EPS
        _, down = run(perturbed)
        fd = (float(up.data.sum()) - float(down.data.sum())) / (2 * EPS)
        ag = float(tensors[i].grad[flat_index])
        assert ag == pytest.approx(fd, abs=TOL, rel=TOL), f"input {i} of {build}"


class TestArithmeticGrads:
    def test_add(self):
        gradcheck(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        gradcheck(lambda a, b: a + b, (3, 4), (4,))

    def test_mul(self):
        gradcheck(lambda a, b: a * b, (3, 4), (3, 4))

    def test_mul_broadcast(self):
        gradcheck(lambda a, b: a * b, (3, 4), (3, 1))

    def test_div(self):
        gradcheck(lambda a, b: a / b, (3, 3), (3, 3), positive=True)

    def test_pow(self):
        gradcheck(lambda a: a ** 3, (4,))

    def test_matmul(self):
        gradcheck(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_sub_rsub(self):
        gradcheck(lambda a: 1.0 - a, (5,))


class TestShapeGrads:
    def test_reshape(self):
        gradcheck(lambda a: (a.reshape(2, 6) * 2).sum(), (3, 4))

    def test_transpose(self):
        gradcheck(lambda a: (a.T @ a), (3, 4))

    def test_index_select(self):
        idx = np.array([0, 2, 2, 1])
        gradcheck(lambda a: a.index_select(idx) * 3, (4, 3))

    def test_slice(self):
        gradcheck(lambda a: a[1:3] * 2, (5, 2))

    def test_cat(self):
        gradcheck(lambda a, b: cat([a * 2, b * 3], axis=0), (2, 3), (4, 3))


class TestReductionGrads:
    def test_sum_all(self):
        gradcheck(lambda a: a.sum(), (3, 4))

    def test_sum_axis(self):
        gradcheck(lambda a: a.sum(axis=1) ** 2, (3, 4))

    def test_mean(self):
        gradcheck(lambda a: a.mean(axis=0) ** 2, (5, 2))

    def test_max(self):
        # distinct values so argmax is stable under perturbation
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        x = Tensor(arr, requires_grad=True)
        x.max(axis=0).sum().backward()
        expected = np.zeros((3, 4), dtype=np.float32)
        expected[2, :] = 1.0
        assert np.allclose(x.grad, expected)


class TestFunctionalGrads:
    def test_relu(self):
        gradcheck(lambda a: F.relu(a), (4, 4))

    def test_leaky_relu(self):
        gradcheck(lambda a: F.leaky_relu(a, 0.1), (4, 4))

    def test_elu(self):
        gradcheck(lambda a: F.elu(a), (4, 4))

    def test_sigmoid(self):
        gradcheck(lambda a: F.sigmoid(a), (4, 4))

    def test_tanh(self):
        gradcheck(lambda a: F.tanh(a), (4, 4))

    def test_exp_log(self):
        gradcheck(lambda a: a.exp(), (3, 3))
        gradcheck(lambda a: a.log(), (3, 3), positive=True)

    def test_softmax(self):
        gradcheck(lambda a: F.softmax(a) ** 2, (3, 5))

    def test_log_softmax(self):
        gradcheck(lambda a: F.log_softmax(a) * 0.5, (3, 5))

    def test_cross_entropy(self):
        labels = np.array([0, 2, 1])
        gradcheck(lambda a: F.cross_entropy(a, labels), (3, 4))

    def test_bce_with_logits(self):
        targets = (RNG.random((3, 4)) > 0.5).astype(np.float32)
        gradcheck(lambda a: F.binary_cross_entropy_with_logits(a, targets), (3, 4))


class TestDropout:
    def test_identity_when_eval(self):
        x = Tensor(np.ones((4, 4), dtype=np.float32), requires_grad=True)
        out = F.dropout(x, p=0.5, training=False)
        assert out is x

    def test_identity_when_p_zero(self):
        x = Tensor(np.ones((4, 4), dtype=np.float32))
        assert F.dropout(x, p=0.0, training=True) is x

    def test_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200), dtype=np.float32))
        out = F.dropout(x, p=0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_gradient_uses_same_mask(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((10, 10), dtype=np.float32), requires_grad=True)
        out = F.dropout(x, p=0.5, training=True, rng=rng)
        out.sum().backward()
        # gradient is the mask itself: zero where dropped, 2.0 where kept
        assert set(np.unique(x.grad)) <= {0.0, 2.0}

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3, dtype=np.float32)), p=1.0)


class TestLossValidation:
    def test_cross_entropy_label_shape_checked(self):
        logits = Tensor(np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.zeros((3, 4)))

    def test_bce_shape_checked(self):
        logits = Tensor(np.zeros((3, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            F.binary_cross_entropy_with_logits(logits, np.zeros((3, 2)))

    def test_cross_entropy_value_matches_manual(self):
        logits = Tensor(np.log(np.array([[0.25, 0.75], [0.5, 0.5]], dtype=np.float32)))
        loss = F.cross_entropy(logits, np.array([1, 0]))
        expected = -(np.log(0.75) + np.log(0.5)) / 2
        assert loss.item() == pytest.approx(expected, rel=1e-5)

    def test_accuracy_and_f1(self):
        logits = Tensor(np.array([[2.0, 1.0], [0.0, 3.0]], dtype=np.float32))
        assert F.accuracy(logits, np.array([0, 1])) == 1.0
        assert F.accuracy(logits, np.array([1, 1])) == 0.5
        ml_logits = Tensor(np.array([[1.0, -1.0]], dtype=np.float32))
        assert F.micro_f1(ml_logits, np.array([[1.0, 0.0]])) == 1.0
        assert 0.0 <= F.micro_f1(ml_logits, np.array([[0.0, 1.0]])) < 1.0


def bits(array):
    """float32 bit patterns, so -0.0 != 0.0 and NaN == the same NaN."""
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


SPECIALS = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45,
                     1.0, -1.0, 3.5, -2.25], dtype=np.float32)


class TestLeakyReluBits:
    """The single-pass forms against the np.where select they replaced."""

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 1.5, -0.1])
    def test_forward_and_backward_match_select(self, slope):
        noise = RNG.standard_normal(53).astype(np.float32)
        x_data = np.concatenate([SPECIALS, noise])
        upstream = np.concatenate([noise[:42], SPECIALS, SPECIALS[::-1]])
        with np.errstate(invalid="ignore"):
            x = Tensor(x_data.copy(), requires_grad=True)
            out = F.leaky_relu(x, slope)
            out.backward(upstream)
            want = np.where(x_data > 0, x_data, slope * x_data)
            want_grad = upstream * np.where(x_data > 0, 1.0, slope).astype(np.float32)
        assert np.array_equal(bits(out.data), bits(want))
        assert np.array_equal(bits(x.grad), bits(want_grad))
        assert np.array_equal(bits(x.data), bits(x_data)), "input was written to"

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.0, -0.5])
    def test_elu_matches_select(self, alpha):
        x_data = np.concatenate([SPECIALS, RNG.standard_normal(53).astype(np.float32)])
        upstream = RNG.standard_normal(x_data.size).astype(np.float32)
        with np.errstate(invalid="ignore", over="ignore"):
            x = Tensor(x_data.copy(), requires_grad=True)
            out = F.elu(x, alpha)
            out.backward(upstream)
            want = np.where(x_data > 0, x_data,
                            alpha * (np.exp(np.minimum(x_data, 0.0)) - 1.0))
            want_grad = upstream * np.where(x_data > 0, 1.0, want + alpha)
        assert np.array_equal(bits(out.data), bits(want))
        assert np.array_equal(bits(x.grad), bits(want_grad))


class TestGradientOwnership:
    """``.grad`` is float32, owned by its tensor, and shared with no other."""

    def test_grad_stays_float32_on_every_touch(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        t._accumulate(np.ones(3))
        t._accumulate(np.ones(3))
        assert t.grad.dtype == np.float32
        assert np.array_equal(t.grad, [2.0, 2.0, 2.0])

    def test_fresh_buffer_is_adopted_and_views_are_copied(self):
        t = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        fresh = np.ones(3, dtype=np.float32)
        t._accumulate(fresh, fresh=True)
        assert t.grad is fresh
        u = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        u._accumulate(fresh)
        assert not np.shares_memory(u.grad, fresh)

    def test_same_tensor_on_both_sides_of_add(self):
        a = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        upstream = np.array([1.0, -2.0, 3.0, 0.5], dtype=np.float32)
        (a + a).backward(upstream)
        assert np.array_equal(a.grad, 2 * upstream)
        assert not np.shares_memory(a.grad, upstream)

    def test_scaling_one_grad_in_place_leaves_the_other(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        out = a + b
        out.sum().backward()
        assert not np.shares_memory(a.grad, b.grad)
        assert not np.shares_memory(a.grad, out.grad)
        a.grad *= 0.25
        assert np.array_equal(b.grad, np.ones((2, 3)))
        assert np.array_equal(out.grad, np.ones((2, 3)))

    def test_broadcast_add_reduces_into_an_owned_buffer(self):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        bias = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (a + bias).sum().backward()
        assert np.array_equal(bias.grad, [2.0, 2.0, 2.0])
        bias.grad *= 0.0
        assert np.array_equal(a.grad, np.ones((2, 3)))

    @pytest.mark.parametrize("view", [
        lambda t: t.reshape(3, 2),
        lambda t: t.transpose(),
        lambda t: t[0:1],
        lambda t: cat([t, t], axis=0),
    ])
    def test_pass_through_ops_do_not_alias_upstream(self, view):
        a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        out = view(a)
        out.backward(np.ones(out.shape, dtype=np.float32))
        want = a.grad.copy()
        assert not np.shares_memory(a.grad, out.grad)
        out.grad *= 7.0
        assert np.array_equal(a.grad, want)

    def test_matmul_operand_used_twice(self):
        a_data = RNG.standard_normal((3, 3)).astype(np.float32)
        a = Tensor(a_data.copy(), requires_grad=True)
        (a @ a).sum().backward()
        ones = np.ones((3, 3), dtype=np.float32)
        assert np.array_equal(bits(a.grad), bits(ones @ a_data.T + a_data.T @ ones))


class TestOptimizerParity:
    """In-place steps against the out-of-place update they replaced."""

    GRADS = [RNG.standard_normal((4, 3)).astype(np.float32) for _ in range(5)]
    START = RNG.standard_normal((4, 3)).astype(np.float32)

    def test_sgd_momentum_weight_decay(self):
        lr, momentum, decay = 0.05, 0.9, 0.01
        p = Tensor(self.START.copy(), requires_grad=True)
        opt = SGD([p], lr=lr, momentum=momentum, weight_decay=decay)
        data = self.START.copy()
        velocity = np.zeros_like(data)
        for grad in self.GRADS:
            p.grad = grad.copy()
            opt.step()
            assert np.array_equal(bits(p.grad), bits(grad)), "step wrote to .grad"
            grad = grad + decay * data
            velocity = momentum * velocity + grad
            data = (data - lr * velocity).astype(np.float32)
            assert np.array_equal(bits(p.data), bits(data))

    def test_adam(self):
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        p = Tensor(self.START.copy(), requires_grad=True)
        opt = Adam([p], lr=lr, betas=(beta1, beta2), eps=eps)
        data = self.START.copy()
        m = np.zeros_like(data)
        v = np.zeros_like(data)
        for step, grad in enumerate(self.GRADS, start=1):
            p.grad = grad.copy()
            opt.step()
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            m_hat = m / (1.0 - beta1 ** step)
            v_hat = v / (1.0 - beta2 ** step)
            data = (data - lr * m_hat / (np.sqrt(v_hat) + eps)).astype(np.float32)
            assert np.array_equal(bits(p.data), bits(data))
            assert np.array_equal(bits(p.grad), bits(grad)), "step wrote to .grad"
