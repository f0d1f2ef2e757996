"""Optimizers: SGD and Adam.

Both the DGL and PyG official examples train with Adam; the update itself
is part of the paper's "model training" phase, so the step charges
elementwise work per parameter.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.tensor.context import charge
from repro.tensor.tensor import FLOAT_DTYPE, Tensor


class Optimizer:
    """Base optimizer over a list of parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _charge_update(self, flops_per_elem: int) -> None:
        device = next((p.device for p in self.params if p.device is not None), None)
        n = sum(p.data.size for p in self.params)
        charge(device, type(self).__name__.lower() + ".step", "elementwise",
               flops=flops_per_elem * n, bytes_moved=12 * n)


class SGD(Optimizer):
    """Vanilla SGD with optional momentum and weight decay."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                velocity = self._velocity[i]
                if velocity is None:
                    velocity = self._velocity[i] = np.zeros_like(p.data, dtype=FLOAT_DTYPE)
                np.multiply(velocity, self.momentum, out=velocity)
                np.add(velocity, grad, out=velocity)
                grad = velocity
            np.subtract(p.data, self.lr * grad, out=p.data)
        self._charge_update(flops_per_elem=4)


class Adam(Optimizer):
    """Adam with bias correction (torch defaults)."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        self._step_count += 1
        bc1 = 1.0 - self.beta1 ** self._step_count
        bc2 = 1.0 - self.beta2 ** self._step_count
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self._m[i] is None:
                self._m[i] = np.zeros_like(p.data, dtype=FLOAT_DTYPE)
                self._v[i] = np.zeros_like(p.data, dtype=FLOAT_DTYPE)
            m, v = self._m[i], self._v[i]
            # Same operations in the same order as the textbook update,
            # written into m, v, p.data and two scratch buffers.
            scratch = np.multiply(grad, 1 - self.beta1, out=np.empty_like(m))
            np.multiply(m, self.beta1, out=m)
            np.add(m, scratch, out=m)
            np.multiply(grad, 1 - self.beta2, out=scratch)
            np.multiply(scratch, grad, out=scratch)
            np.multiply(v, self.beta2, out=v)
            np.add(v, scratch, out=v)
            np.divide(m, bc1, out=scratch)  # m_hat
            np.multiply(scratch, self.lr, out=scratch)
            denom = np.divide(v, bc2, out=np.empty_like(v))  # v_hat
            np.sqrt(denom, out=denom)
            np.add(denom, self.eps, out=denom)
            np.divide(scratch, denom, out=scratch)
            np.subtract(p.data, scratch, out=p.data)
        self._charge_update(flops_per_elem=12)
