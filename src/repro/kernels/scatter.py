"""Unfused gather / scatter message passing (PyG's MessagePassing path).

``gather`` materializes the per-edge message buffer — an ``E x F`` tensor
whose *logical* allocation is what OOMs PyG's ChebConv/GATConv/GATv2Conv
on Reddit and ogbn-products (48 GB VRAM, Observation 3).  ``scatter_add``
reduces messages back to destination nodes; the paper attributes PyG's slow
CPU training to exactly this scatter being "not well optimized on CPU".
"""

from __future__ import annotations

import numpy as np

from repro.kernels.adj import SparseAdj
from repro.tensor.context import charge
from repro.tensor.tensor import Tensor


def gather(adj: SparseAdj, x: Tensor, side: str = "src") -> Tensor:
    """Materialize per-edge features: ``out[e] = x[src[e]]`` (or dst).

    The output tensor's logical size is ``E_logical x F`` — allocating it
    on the device ledger is deliberate; it reproduces the unfused path's
    memory blow-up.
    """
    if side not in ("src", "dst"):
        raise ValueError("side must be 'src' or 'dst'")
    index = adj.src if side == "src" else adj.dst
    out = Tensor(
        np.take(x.data, index, axis=0),
        device=adj.device,
        requires_grad=x.requires_grad,
        work_scale=adj.edge_scale,
        _prev=(x,) if x.requires_grad else (),
        _op="gather",
    )
    feat_width = int(np.prod(x.shape[1:]))
    moved = 4.0 * 2.0 * adj.logical_num_edges * feat_width
    charge(adj.device, "gather", "gather", bytes_moved=moved)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            # Segment-reduce fast path (reduceat over sorted edge order)
            # with the np.add.at reference behind use_reference_kernels().
            x._accumulate(adj.sum_edges(out.grad, side=side), fresh=True)
            charge(adj.device, "gather.bwd", "scatter", flops=adj.logical_num_edges * feat_width,
                   bytes_moved=2.0 * moved)
        out._backward = _backward
    return out


def scatter_add(adj: SparseAdj, messages: Tensor) -> Tensor:
    """Reduce per-edge messages to destinations: ``out[d] += msg[e]``."""
    if messages.shape[0] != adj.num_edges:
        raise ValueError("messages must have one row per edge")
    out_data = adj.sum_edges(messages.data, side="dst")
    out = Tensor(
        out_data,
        device=adj.device,
        requires_grad=messages.requires_grad,
        work_scale=adj.node_scale,
        _prev=(messages,) if messages.requires_grad else (),
        _op="scatter_add",
    )
    feat_width = int(np.prod(messages.shape[1:]))
    e_log = adj.logical_num_edges
    charge(adj.device, "scatter_add", "scatter", flops=e_log * feat_width,
           bytes_moved=4.0 * 3.0 * e_log * feat_width)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            messages._accumulate(np.take(out.grad, adj.dst, axis=0), fresh=True)
            charge(adj.device, "scatter_add.bwd", "gather",
                   bytes_moved=4.0 * 2.0 * e_log * feat_width)
        out._backward = _backward
    return out


def scatter_mean(adj: SparseAdj, messages: Tensor) -> Tensor:
    """Mean-reduce per-edge messages to destinations (degree-normalized).

    The inverse-degree vector is served from the adjacency's cache — a
    reshape view, not a fresh allocation per call.
    """
    total = scatter_add(adj, messages)
    inv = Tensor(
        adj.inv_in_degrees().reshape((adj.num_dst,) + (1,) * (total.ndim - 1)),
        device=adj.device,
        work_scale=adj.node_scale,
        _owns_memory=False,
    )
    return total * inv
