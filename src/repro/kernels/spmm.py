"""Fused sparse-dense matrix multiplication (g-SpMM).

This is DGL's ``update_all`` kernel and PyG's ``matmul(SparseTensor, X)``
fast path.  One kernel aggregates messages without materializing them, so
its working set is O(E + N*F) — never O(E*F).

Weighted forward/backward calls go through the adjacency's reusable CSR
structure (in-place ``.data`` swap, cached transpose) — no scipy matrix is
rebuilt per call; see :mod:`repro.kernels.adj`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PlacementError
from repro.kernels.adj import SparseAdj
from repro.tensor.context import charge, cost_only_active, placeholder
from repro.tensor.tensor import FLOAT_DTYPE, Tensor


def _check_device(adj: SparseAdj, *tensors: Tensor) -> None:
    for t in tensors:
        if t is None:
            continue
        if t.device is not adj.device and t.device is not None and adj.device is not None:
            raise PlacementError(
                f"adjacency on {getattr(adj.device, 'name', None)} but tensor on "
                f"{getattr(t.device, 'name', None)}"
            )


def spmm(adj: SparseAdj, x: Tensor, weight: Optional[Tensor] = None,
         family: str = "spmm") -> Tensor:
    """``out[d] = sum_{e:(s->d)} w[e] * x[s]`` as one fused kernel.

    ``x`` is ``(num_src, F)`` or multi-head ``(num_src, H, D)``; ``weight``
    (optional, per-edge) is ``(E,)`` or ``(E, H)`` in the adjacency's
    canonical edge order.  Output rows are destination nodes.
    """
    _check_device(adj, x, weight)
    if x.shape[0] != adj.num_src:
        raise ValueError(f"x has {x.shape[0]} rows, adjacency expects {adj.num_src}")

    multihead = x.ndim == 3
    if weight is not None and multihead and weight.shape != (adj.num_edges, x.shape[1]):
        raise ValueError("multi-head weight must be (E, H)")
    if weight is not None and not multihead and weight.shape != (adj.num_edges,):
        raise ValueError("weight must be (E,)")
    if cost_only_active():
        out_data = placeholder((adj.num_dst,) + x.shape[1:])
    elif weight is not None and multihead:
        heads = x.shape[1]
        out_data = np.empty((adj.num_dst, heads, x.shape[2]), dtype=FLOAT_DTYPE)
        for h in range(heads):
            out_data[:, h, :] = adj.matmul_data(weight.data[:, h], x.data[:, h, :])
    elif weight is not None:
        out_data = adj.matmul_data(weight.data, x.data)
    elif multihead:
        flat = x.data.reshape(adj.num_src, -1)
        out_data = adj.matmul_data(None, flat).reshape(adj.num_dst, *x.shape[1:])
    else:
        out_data = adj.matmul_data(None, x.data)

    parents = (x,) if weight is None else (x, weight)
    out = Tensor(
        out_data,
        device=adj.device,
        requires_grad=any(p.requires_grad for p in parents),
        work_scale=adj.node_scale,
        _prev=tuple(p for p in parents if p.requires_grad),
        _op=family,
    )

    feat_width = int(np.prod(x.shape[1:]))
    e_log = adj.logical_num_edges
    n_log = adj.logical_num_src + adj.logical_num_dst
    flops = 2.0 * e_log * feat_width
    bytes_moved = 4.0 * (2.0 * e_log + n_log * feat_width)
    charge(adj.device, f"{family}.fwd", family, flops=flops, bytes_moved=bytes_moved)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            if x.requires_grad:
                if weight is not None and multihead:
                    grad_x = np.empty_like(x.data)
                    # Per-head, not per-element: H is tiny and each
                    # iteration is one full SpMM.
                    for h in range(x.shape[1]):
                        grad_x[:, h, :] = adj.rmatmul(out.grad[:, h, :], weight.data[:, h])
                elif weight is not None:
                    grad_x = adj.rmatmul(out.grad, weight.data)
                elif multihead:
                    grad_x = adj.rmatmul(out.grad.reshape(adj.num_dst, -1)).reshape(x.shape)
                else:
                    grad_x = adj.rmatmul(out.grad)
                x._accumulate(grad_x, fresh=True)
            if weight is not None and weight.requires_grad:
                # dW[e] = <x[src[e]], grad[dst[e]]>, an SDDMM.
                x_src = np.take(x.data, adj.src, axis=0)
                grad_dst = np.take(out.grad, adj.dst, axis=0)
                if multihead:
                    grad_w = np.einsum("ehd,ehd->eh", x_src, grad_dst)
                else:
                    x_src *= grad_dst
                    grad_w = x_src.sum(axis=1)
                weight._accumulate(grad_w, fresh=True)
            charge(adj.device, f"{family}.bwd", family, flops=2.0 * flops,
                   bytes_moved=2.0 * bytes_moved)
        out._backward = _backward
    return out
