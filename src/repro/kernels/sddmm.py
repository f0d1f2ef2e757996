"""Per-edge kernels: g-SDDMM variants and segment softmax.

Attention layers compute a score per edge from the endpoint embeddings
(g-SDDMM in DGL's terminology) and normalize scores over each node's
incoming edges (segment softmax).  Outputs here are ``E x H`` with small
``H`` (heads), so even the fused attention path stores per-edge *scores* —
but never per-edge *feature vectors*.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.adj import SparseAdj
from repro.tensor.context import charge
from repro.tensor.tensor import FLOAT_DTYPE, Tensor


def sddmm_u_add_v(adj: SparseAdj, u_feat: Tensor, v_feat: Tensor,
                  family: str = "sddmm") -> Tensor:
    """``out[e] = u_feat[src[e]] + v_feat[dst[e]]`` (GAT's score assembly)."""
    if u_feat.shape[0] != adj.num_src or v_feat.shape[0] != adj.num_dst:
        raise ValueError("endpoint feature rows must match adjacency sides")
    out_data = np.take(u_feat.data, adj.src, axis=0)
    out_data += np.take(v_feat.data, adj.dst, axis=0)
    requires = u_feat.requires_grad or v_feat.requires_grad
    out = Tensor(
        out_data,
        device=adj.device,
        requires_grad=requires,
        work_scale=adj.edge_scale,
        _prev=tuple(t for t in (u_feat, v_feat) if t.requires_grad),
        _op="sddmm_u_add_v",
    )
    width = int(np.prod(out_data.shape[1:])) if out_data.ndim > 1 else 1
    e_log = adj.logical_num_edges
    charge(adj.device, "sddmm_u_add_v", family, flops=e_log * width,
           bytes_moved=4.0 * 3.0 * e_log * width)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            if u_feat.requires_grad:
                u_feat._accumulate(adj.sum_edges(out.grad, side="src"), fresh=True)
            if v_feat.requires_grad:
                v_feat._accumulate(adj.sum_edges(out.grad, side="dst"), fresh=True)
            charge(adj.device, "sddmm_u_add_v.bwd", family, flops=e_log * width,
                   bytes_moved=4.0 * 3.0 * e_log * width)
        out._backward = _backward
    return out


def sddmm_u_dot_v(adj: SparseAdj, u_feat: Tensor, v_feat: Tensor,
                  family: str = "sddmm") -> Tensor:
    """``out[e, h] = <u_feat[src[e], h], v_feat[dst[e], h]>`` (dot attention)."""
    if u_feat.ndim != 3 or v_feat.ndim != 3:
        raise ValueError("u_dot_v expects (N, H, D) endpoint features")
    out_data = np.einsum(
        "ehd,ehd->eh", np.take(u_feat.data, adj.src, axis=0),
        np.take(v_feat.data, adj.dst, axis=0),
    ).astype(FLOAT_DTYPE, copy=False)
    requires = u_feat.requires_grad or v_feat.requires_grad
    out = Tensor(
        out_data,
        device=adj.device,
        requires_grad=requires,
        work_scale=adj.edge_scale,
        _prev=tuple(t for t in (u_feat, v_feat) if t.requires_grad),
        _op="sddmm_u_dot_v",
    )
    heads, dim = u_feat.shape[1], u_feat.shape[2]
    e_log = adj.logical_num_edges
    charge(adj.device, "sddmm_u_dot_v", family, flops=2.0 * e_log * heads * dim,
           bytes_moved=4.0 * 2.0 * e_log * heads * dim)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            if u_feat.requires_grad:
                grad_edge = np.take(v_feat.data, adj.dst, axis=0)
                grad_edge *= out.grad[:, :, None]
                u_feat._accumulate(adj.sum_edges(grad_edge, side="src"), fresh=True)
            if v_feat.requires_grad:
                grad_edge = np.take(u_feat.data, adj.src, axis=0)
                grad_edge *= out.grad[:, :, None]
                v_feat._accumulate(adj.sum_edges(grad_edge, side="dst"), fresh=True)
            charge(adj.device, "sddmm_u_dot_v.bwd", family,
                   flops=4.0 * e_log * heads * dim,
                   bytes_moved=4.0 * 4.0 * e_log * heads * dim)
        out._backward = _backward
    return out


def fused_gatv2_scores(adj: SparseAdj, u_feat: Tensor, v_feat: Tensor,
                       att: Tensor, negative_slope: float = 0.2,
                       family: str = "sddmm") -> Tensor:
    """GATv2 attention logits as one fused g-SDDMM kernel.

    ``out[e, h] = <att[h], leaky_relu(u_feat[src[e], h] + v_feat[dst[e], h])>``

    The per-edge ``E x H x D`` intermediate stays inside the kernel (never
    allocated on the device ledger) — this is DGLite's fused path.  The
    unfused PyGLite path builds the same computation from ``gather`` +
    elementwise ops and pays the materialization.
    """
    if u_feat.ndim != 3 or v_feat.ndim != 3 or att.ndim != 2:
        raise ValueError("fused_gatv2_scores expects (N,H,D) features, (H,D) att")
    # Two E x H x D buffers, both internal to the kernel: the gathered
    # sum, and a second one that holds the dst gather, then the scaled
    # copy, then the activation.
    slope = FLOAT_DTYPE(negative_slope)
    summed = np.take(u_feat.data, adj.src, axis=0)
    activated = np.take(v_feat.data, adj.dst, axis=0)
    summed += activated
    np.multiply(summed, slope, out=activated)
    # maximum(x, slope * x) is leaky-ReLU to the last bit only for
    # 0 < slope <= 1 (see repro.tensor.functional.leaky_relu).
    as_maximum = 0.0 < negative_slope <= 1.0
    if as_maximum:
        np.maximum(summed, activated, out=activated)
    else:
        np.copyto(activated, summed, where=summed > 0)
    out_data = np.einsum("ehd,hd->eh", activated, att.data).astype(FLOAT_DTYPE, copy=False)
    requires = u_feat.requires_grad or v_feat.requires_grad or att.requires_grad
    out = Tensor(
        out_data,
        device=adj.device,
        requires_grad=requires,
        work_scale=adj.edge_scale,
        _prev=tuple(t for t in (u_feat, v_feat, att) if t.requires_grad),
        _op="fused_gatv2",
    )
    heads, dim = u_feat.shape[1], u_feat.shape[2]
    e_log = adj.logical_num_edges
    charge(adj.device, "fused_gatv2", family, flops=4.0 * e_log * heads * dim,
           bytes_moved=4.0 * 3.0 * e_log * heads * dim)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            # d activated[e,h,d] = out.grad[e,h] * att[h,d] * slope[e,h,d],
            # slope being 1 where summed > 0 and negative_slope elsewhere.
            grad_act = out.grad[:, :, None] * att.data[None, :, :]
            if as_maximum:
                edge_slope = np.empty_like(summed)
                np.greater(summed, 0, out=edge_slope)
                np.maximum(edge_slope, slope, out=edge_slope)
                grad_act *= edge_slope
            else:
                np.multiply(grad_act, slope, out=grad_act, where=~(summed > 0))
            if u_feat.requires_grad:
                u_feat._accumulate(adj.sum_edges(grad_act, side="src"), fresh=True)
            if v_feat.requires_grad:
                v_feat._accumulate(adj.sum_edges(grad_act, side="dst"), fresh=True)
            if att.requires_grad:
                att._accumulate(np.einsum("ehd,eh->hd", activated, out.grad), fresh=True)
            charge(adj.device, "fused_gatv2.bwd", family,
                   flops=8.0 * e_log * heads * dim,
                   bytes_moved=4.0 * 6.0 * e_log * heads * dim)
        out._backward = _backward
    return out


def segment_softmax(adj: SparseAdj, scores: Tensor, family: str = "sddmm") -> Tensor:
    """Softmax of per-edge scores over each destination's incoming edges."""
    if scores.shape[0] != adj.num_edges:
        raise ValueError("scores must have one row per edge")
    dst = adj.dst
    width_shape = scores.shape[1:]
    # Per-destination max for numerical stability (reduceat fast path).
    max_buf = adj.max_edges(scores.data)
    # The gathered max is shifted in place: one E-row buffer, not two.
    out_data = np.take(max_buf, dst, axis=0)
    np.subtract(scores.data, out_data, out=out_data)
    np.exp(out_data, out=out_data)
    sum_buf = adj.sum_edges(out_data, side="dst")
    np.maximum(sum_buf, np.finfo(FLOAT_DTYPE).tiny, out=sum_buf)
    out_data /= np.take(sum_buf, dst, axis=0)
    out = Tensor(
        out_data,
        device=adj.device,
        requires_grad=scores.requires_grad,
        work_scale=adj.edge_scale,
        _prev=(scores,) if scores.requires_grad else (),
        _op="segment_softmax",
    )
    width = int(np.prod(width_shape)) if width_shape else 1
    e_log = adj.logical_num_edges
    charge(adj.device, "segment_softmax", family, flops=6.0 * e_log * width,
           bytes_moved=4.0 * 4.0 * e_log * width)

    if out.requires_grad:
        def _backward(out: Tensor) -> None:
            weighted = out.grad * out.data
            dot_buf = adj.sum_edges(weighted, side="dst")
            weighted -= out.data * np.take(dot_buf, dst, axis=0)
            scores._accumulate(weighted, fresh=True)
            charge(adj.device, "segment_softmax.bwd", family, flops=4.0 * e_log * width,
                   bytes_moved=4.0 * 4.0 * e_log * width)
        out._backward = _backward
    return out
