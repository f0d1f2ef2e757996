"""Functional ops: activations, softmax, dropout, and losses.

All functions build autograd nodes and charge roofline costs like the core
``Tensor`` methods do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor.context import charge
from repro.tensor.tensor import FLOAT_DTYPE, Tensor

# Shared fallback stream for callers that don't thread their own
# Generator (repro-lint RNG-SEED): seeded so bare dropout() calls are
# reproducible across runs while successive calls still draw fresh masks.
_FALLBACK_RNG = np.random.default_rng(0)


def relu(x: Tensor) -> Tensor:
    out = Tensor._result(np.maximum(x.data, 0.0), (x,), "relu")
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


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    out_data = np.minimum(x.data, 0.0, out=np.empty_like(x.data))
    np.exp(out_data, out=out_data)
    out_data -= 1.0
    out_data *= alpha
    if 0.0 < alpha < np.inf:
        # alpha * (exp(0) - 1) is exactly +0 wherever x > 0.
        out_data += np.maximum(x.data, 0.0)
    else:
        np.copyto(out_data, x.data, where=x.data > 0)
    out = Tensor._result(out_data, (x,), "elu")
    n = out.data.size
    charge(out.device, "elu", "elementwise", flops=5 * n, bytes_moved=8 * n, scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            grad = np.add(out.data, alpha, out=np.empty_like(out.data))
            grad *= out.grad
            np.copyto(grad, out.grad, where=x.data > 0)
            x._accumulate(grad, fresh=True)
            charge(out.device, "elu.bwd", "elementwise", flops=2 * n, bytes_moved=8 * n,
                   scale=out.work_scale)
        out._backward = _backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-x.data))
    out = Tensor._result(out_data, (x,), "sigmoid")
    n = out.data.size
    charge(out.device, "sigmoid", "elementwise", flops=5 * n, bytes_moved=8 * n,
           scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            x._accumulate(out.grad * out.data * (1.0 - out.data), fresh=True)
            charge(out.device, "sigmoid.bwd", "elementwise", flops=3 * n, bytes_moved=8 * n,
                   scale=out.work_scale)
        out._backward = _backward
    return out


def tanh(x: Tensor) -> Tensor:
    out = Tensor._result(np.tanh(x.data), (x,), "tanh")
    n = out.data.size
    charge(out.device, "tanh", "elementwise", flops=6 * n, bytes_moved=8 * n, scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            x._accumulate(out.grad * (1.0 - out.data * out.data), fresh=True)
            charge(out.device, "tanh.bwd", "elementwise", flops=3 * n, bytes_moved=8 * n,
                   scale=out.work_scale)
        out._backward = _backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out_data = ex / ex.sum(axis=axis, keepdims=True)
    out = Tensor._result(out_data, (x,), "softmax")
    n = out.data.size
    charge(out.device, "softmax", "elementwise", flops=8 * n, bytes_moved=12 * n,
           scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            dot = (out.grad * out.data).sum(axis=axis, keepdims=True)
            x._accumulate(out.data * (out.grad - dot), fresh=True)
            charge(out.device, "softmax.bwd", "elementwise", flops=4 * n, bytes_moved=12 * n,
                   scale=out.work_scale)
        out._backward = _backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = Tensor._result(shifted - logsum, (x,), "log_softmax")
    n = out.data.size
    charge(out.device, "log_softmax", "elementwise", flops=8 * n, bytes_moved=12 * n,
           scale=out.work_scale)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            softmax_data = np.exp(out.data)
            grad_sum = out.grad.sum(axis=axis, keepdims=True)
            x._accumulate(out.grad - softmax_data * grad_sum, fresh=True)
            charge(out.device, "log_softmax.bwd", "elementwise", flops=4 * n, bytes_moved=12 * n,
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
    out = Tensor._result(x.data * mask, (x,), "dropout")
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
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - logsum
    picked = log_probs[np.arange(n_rows), labels]
    out = Tensor._result(np.asarray(-picked.mean()), (logits,), "cross_entropy")
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
    # Numerically stable: max(z,0) - z*y + log(1 + exp(-|z|))
    loss = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    out = Tensor._result(np.asarray(loss.mean()), (logits,), "bce_logits")
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
