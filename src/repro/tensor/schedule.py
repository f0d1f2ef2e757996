"""Training utilities: gradient clipping and learning-rate schedules.

Not part of the paper's measured pipelines (its models train at a fixed
Adam rate for 10 epochs) but standard equipment for a usable GNN library;
they compose with the trainer's optimizer without touching the cost model
(their arithmetic is O(parameters), charged like an optimizer step).
"""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from repro.tensor.context import charge
from repro.tensor.optim import Optimizer
from repro.tensor.tensor import Tensor, no_grad


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (torch semantics).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = [p for p in params if p.grad is not None]
    if not params:
        return 0.0
    total_sq = 0.0
    for p in params:
        # f64 accumulation keeps the global norm stable over many params.
        grad64 = p.grad.astype(np.float64)  # repro-lint: disable=DTYPE-DRIFT
        total_sq += float((grad64 ** 2).sum())
    total = math.sqrt(total_sq)
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        with no_grad():
            for p in params:
                p.grad = (p.grad * scale).astype(p.grad.dtype)
    device = next((p.device for p in params if p.device is not None), None)
    n = sum(p.grad.size for p in params)
    charge(device, "clip_grad_norm", "elementwise", flops=3 * n, bytes_moved=8 * n)
    return total


class LRScheduler:
    """Base class: mutates ``optimizer.lr`` on each ``step()``."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> float:
        self.epoch += 1
        self.optimizer.lr = self.compute_lr(self.epoch)
        return self.optimizer.lr

    def compute_lr(self, epoch: int) -> float:
        raise NotImplementedError


class CosineLR(LRScheduler):
    """Cosine annealing from the base rate to ``min_lr`` over ``t_max``."""

    def __init__(self, optimizer: Optimizer, t_max: int = 50,
                 min_lr: float = 0.0) -> None:
        if t_max < 1 or min_lr < 0:
            raise ValueError("need t_max >= 1 and min_lr >= 0")
        super().__init__(optimizer)
        self.t_max = t_max
        self.min_lr = min_lr

    def compute_lr(self, epoch: int) -> float:
        progress = min(1.0, epoch / self.t_max)
        cosine = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine
