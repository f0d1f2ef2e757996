"""Segment reductions over per-edge values, grouped by destination node."""

from __future__ import annotations

import numpy as np

from repro.kernels.adj import SparseAdj
from repro.tensor.context import charge
from repro.tensor.tensor import Tensor


def segment_sum(adj: SparseAdj, values: Tensor, family: str = "scatter") -> Tensor:
    """Sum per-edge values into their destination segment."""
    from repro.kernels.scatter import scatter_add

    return scatter_add(adj, values)


def segment_mean(adj: SparseAdj, values: Tensor, family: str = "scatter") -> Tensor:
    """Mean per-edge values into their destination segment."""
    from repro.kernels.scatter import scatter_mean

    return scatter_mean(adj, values)


def segment_max(adj: SparseAdj, values: Tensor, family: str = "scatter") -> Tensor:
    """Max-reduce per-edge values by destination (max-pool aggregators)."""
    if values.shape[0] != adj.num_edges:
        raise ValueError("values must have one row per edge")
    # maximum.reduceat fast path over the dst-sorted edge order (reference
    # maximum.at scatter behind use_reference_kernels()).
    out_data = adj.max_edges(values.data)
    isolated = ~np.isfinite(out_data)
    out_data[isolated] = 0.0
    out = Tensor(
        out_data,
        device=adj.device,
        requires_grad=values.requires_grad,
        work_scale=adj.node_scale,
        _prev=(values,) if values.requires_grad else (),
        _op="segment_max",
    )
    width = int(np.prod(values.shape[1:])) if values.ndim > 1 else 1
    e_log = adj.logical_num_edges
    charge(adj.device, "segment_max", family, flops=e_log * width,
           bytes_moved=4.0 * 3.0 * e_log * width)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            # Route gradient to the argmax edges of each segment.
            losers = values.data != np.take(out.data, adj.dst, axis=0)
            grad = np.take(out.grad, adj.dst, axis=0)
            grad[losers] = 0.0
            values._accumulate(grad, fresh=True)
            charge(adj.device, "segment_max.bwd", family, flops=e_log * width,
                   bytes_moved=4.0 * 3.0 * e_log * width)
        out._backward = _backward
    return out
