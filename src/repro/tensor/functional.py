"""Functional ops: activations, softmax, dropout, and losses.

All functions build autograd nodes and charge roofline costs like the core
``Tensor`` methods do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor.context import charge, cost_only_active, placeholder
from repro.tensor.tensor import FLOAT_DTYPE, Tensor

# Shared fallback stream for callers that don't thread their own
# Generator: seeded so bare dropout() calls are reproducible across runs
# while successive calls still draw fresh masks.
_FALLBACK_RNG = np.random.default_rng(0)


def relu(x: Tensor) -> Tensor:
    out_data = placeholder(x.shape) if cost_only_active() else np.maximum(x.data, 0.0)
    out = Tensor._result(out_data, (x,), "relu")
    n = out.data.size
    charge(out.device, "relu", "elementwise", flops=n, bytes_moved=8 * n, scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            x._accumulate(out.grad * (x.data > 0), fresh=True)
            charge(out.device, "relu.bwd", "elementwise", flops=n, bytes_moved=8 * n,
                   scale=out.work_scale)
        out._backward = _backward
    return out


def leaky_relu(x: Tensor, negative_slope: float = 0.2) -> Tensor:
    """``x`` where positive, ``negative_slope * x`` elsewhere."""
    slope = FLOAT_DTYPE(negative_slope)
    # maximum(x, slope * x) is the select to the last bit only for
    # 0 < slope <= 1: outside it the wrong branch wins (or signed zeros
    # differ), and 0 * inf is NaN where the select keeps inf.
    as_maximum = 0.0 < negative_slope <= 1.0
    if cost_only_active():
        out_data = placeholder(x.shape)
    else:
        out_data = np.multiply(x.data, slope, out=np.empty_like(x.data))
        if as_maximum:
            np.maximum(x.data, out_data, out=out_data)
        else:
            np.copyto(out_data, x.data, where=x.data > 0)
    out = Tensor._result(out_data, (x,), "leaky_relu")
    n = out.data.size
    charge(out.device, "leaky_relu", "elementwise", flops=2 * n, bytes_moved=8 * n,
           scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            if as_maximum:
                # Per-element slope, max(x > 0, slope), built in place.
                grad = np.empty_like(x.data)
                np.greater(x.data, 0, out=grad)
                np.maximum(grad, slope, out=grad)
                np.multiply(out.grad, grad, out=grad)
            else:
                grad = np.multiply(out.grad, slope, out=np.empty_like(x.data))
                np.copyto(grad, out.grad, where=x.data > 0)
            x._accumulate(grad, fresh=True)
            charge(out.device, "leaky_relu.bwd", "elementwise", flops=2 * n, bytes_moved=8 * n,
                   scale=out.work_scale)
        out._backward = _backward
    return out


def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = rng if rng is not None else _FALLBACK_RNG
    mask = (rng.random(x.shape) >= p).astype(FLOAT_DTYPE)
    mask /= 1.0 - p
    out_data = placeholder(x.shape) if cost_only_active() else x.data * mask
    out = Tensor._result(out_data, (x,), "dropout")
    n = out.data.size
    charge(out.device, "dropout", "elementwise", flops=2 * n, bytes_moved=12 * n,
           scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            x._accumulate(out.grad * mask, fresh=True)
            charge(out.device, "dropout.bwd", "elementwise", flops=n, bytes_moved=12 * n,
                   scale=out.work_scale)
        out._backward = _backward
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy with integer class labels.

    Used for the single-label node-classification datasets (Flickr,
    ogbn-arxiv, Reddit, ogbn-products).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError("labels must be 1-D with one entry per row of logits")
    n_rows, n_classes = logits.shape
    if cost_only_active():
        loss = placeholder(())
    else:
        shifted = logits.data - logits.data.max(axis=1, keepdims=True)
        logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        log_probs = shifted - logsum
        loss = np.asarray(-log_probs[np.arange(n_rows), labels].mean())
    out = Tensor._result(loss, (logits,), "cross_entropy")
    n = logits.data.size
    charge(out.device, "cross_entropy", "elementwise", flops=8 * n, bytes_moved=12 * n,
           scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            probs = np.exp(log_probs)
            probs[np.arange(n_rows), labels] -= 1.0
            logits._accumulate(out.grad * probs / n_rows, fresh=True)
            charge(out.device, "cross_entropy.bwd", "elementwise", flops=4 * n,
                   bytes_moved=12 * n, scale=out.work_scale)
        out._backward = _backward
    return out


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean multi-label BCE (PPI and Yelp are multi-label tasks)."""
    targets = np.asarray(targets, dtype=FLOAT_DTYPE)
    if targets.shape != logits.shape:
        raise ValueError("targets must match logits shape")
    z = logits.data
    if cost_only_active():
        loss = placeholder(())
    else:
        # Numerically stable: max(z,0) - z*y + log(1 + exp(-|z|))
        loss = np.asarray((np.maximum(z, 0.0) - z * targets
                           + np.log1p(np.exp(-np.abs(z)))).mean())
    out = Tensor._result(loss, (logits,), "bce_logits")
    n = logits.data.size
    charge(out.device, "bce_logits", "elementwise", flops=10 * n, bytes_moved=12 * n,
           scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            probs = 1.0 / (1.0 + np.exp(-z))
            logits._accumulate(out.grad * (probs - targets) / logits.data.size, fresh=True)
            charge(out.device, "bce_logits.bwd", "elementwise", flops=5 * n,
                   bytes_moved=12 * n, scale=out.work_scale)
        out._backward = _backward
    return out


def accuracy(logits: Tensor, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the integer label."""
    pred = logits.data.argmax(axis=1)
    return float((pred == np.asarray(labels)).mean())


def micro_f1(logits: Tensor, targets: np.ndarray, threshold: float = 0.0) -> float:
    """Micro-averaged F1 for multi-label outputs (PPI/Yelp metric)."""
    pred = logits.data > threshold
    truth = np.asarray(targets) > 0.5
    tp = float(np.logical_and(pred, truth).sum())
    fp = float(np.logical_and(pred, ~truth).sum())
    fn = float(np.logical_and(~pred, truth).sum())
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0
