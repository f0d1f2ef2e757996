"""Tests for gradient clipping and the cosine LR schedule."""

import math

import numpy as np
import pytest

from repro.tensor.module import Linear
from repro.tensor.optim import Adam
from repro.tensor.schedule import CosineLR, clip_grad_norm
from repro.tensor.tensor import Tensor


def _params_with_grads(scale=1.0):
    lin = Linear(4, 4, seed=0)
    for p in lin.parameters():
        p.grad = np.full_like(p.data, scale)
    return lin.parameters()


class TestClipGradNorm:
    def test_returns_preclip_norm(self):
        params = _params_with_grads(1.0)
        n = sum(p.data.size for p in params)
        norm = clip_grad_norm(params, max_norm=1e9)
        assert norm == pytest.approx(math.sqrt(n), rel=1e-5)

    def test_clips_to_max_norm(self):
        params = _params_with_grads(100.0)
        clip_grad_norm(params, max_norm=1.0)
        post = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
        assert post == pytest.approx(1.0, rel=1e-4)

    def test_leaves_small_grads_alone(self):
        params = _params_with_grads(1e-4)
        before = [p.grad.copy() for p in params]
        clip_grad_norm(params, max_norm=10.0)
        for b, p in zip(before, params):
            assert np.array_equal(b, p.grad)

    def test_skips_gradless_params(self):
        lin = Linear(3, 3)
        assert clip_grad_norm(lin.parameters(), 1.0) == 0.0

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([], max_norm=0.0)


class TestSchedulers:
    def _opt(self, lr=1.0):
        return Adam(Linear(2, 2).parameters(), lr=lr)

    def test_cosine_lr_anneals_to_min(self):
        opt = self._opt()
        sched = CosineLR(opt, t_max=10, min_lr=0.1)
        rates = [sched.step() for _ in range(10)]
        assert rates[0] < 1.0
        assert rates[-1] == pytest.approx(0.1, abs=1e-6)
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_validation(self):
        opt = self._opt()
        with pytest.raises(ValueError):
            CosineLR(opt, t_max=0)
        with pytest.raises(ValueError):
            CosineLR(opt, min_lr=-1.0)

    def test_scheduler_affects_updates(self):
        opt = self._opt(lr=1.0)
        sched = CosineLR(opt, t_max=1, min_lr=0.1)
        for p in opt.params:
            p.grad = np.ones_like(p.data)
        before = opt.params[0].data.copy()
        sched.step()  # lr -> 0.1
        opt.step()  # Adam's first step moves each weight by ~lr
        delta = np.abs(opt.params[0].data - before).max()
        assert delta == pytest.approx(0.1, rel=1e-5)
