"""Helpers of the conv-layer zoo (edge normalizations, self-loops, dst rows)."""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.formats import INDEX_DTYPE
from repro.kernels.adj import SparseAdj
from repro.tensor.context import charge
from repro.tensor.tensor import FLOAT_DTYPE, Tensor


def with_self_loops(adj: SparseAdj) -> SparseAdj:
    """Square adjacency with one self-loop per node added.

    Loop edges are merged at the end of each node's dst segment — a
    single vectorized insert that keeps the edge list in canonical
    (dst-sorted) order, exactly where the old append-then-argsort placed
    them, so construction can take the argsort-free fast path.
    """
    if adj.num_src != adj.num_dst:
        raise GraphFormatError("self-loops require a square adjacency")
    loops = np.arange(adj.num_dst, dtype=INDEX_DTYPE)
    segment_ends = adj.indptr[1:]
    return SparseAdj.from_sorted_block(
        np.insert(adj.src, segment_ends, loops),
        np.insert(adj.dst, segment_ends, loops),
        num_src=adj.num_src,
        num_dst=adj.num_dst,
        device=adj.device,
        node_scale=adj.node_scale,
        edge_scale=adj.edge_scale,
    )


def gcn_norm_weight(adj: SparseAdj) -> Tensor:
    """Symmetric GCN normalization ``1 / sqrt(d[src] * d[dst])`` per edge.

    Degrees are in-degrees of the (self-loop-including) adjacency; the
    caller is expected to pass an adjacency that already has self-loops.
    """
    deg = np.maximum(adj.in_degrees().astype(FLOAT_DTYPE), 1.0)
    inv_sqrt = 1.0 / np.sqrt(deg)
    weight = inv_sqrt[adj.src] * inv_sqrt[adj.dst]
    e_log = adj.logical_num_edges
    charge(adj.device, "gcn_norm", "elementwise", flops=4.0 * e_log,
           bytes_moved=12.0 * e_log)
    return Tensor(weight, device=adj.device, work_scale=adj.edge_scale,
                  _owns_memory=False)


def neg_laplacian_weight(adj: SparseAdj) -> Tensor:
    """Per-edge weight of ``-D^{-1/2} A D^{-1/2}`` (ChebConv's scaled
    Laplacian with lambda_max = 2: ``L~ = L_sym - I = -D^{-1/2} A D^{-1/2}``)."""
    deg = np.maximum(adj.in_degrees().astype(FLOAT_DTYPE), 1.0)
    inv_sqrt = 1.0 / np.sqrt(deg)
    weight = -(inv_sqrt[adj.src] * inv_sqrt[adj.dst])
    e_log = adj.logical_num_edges
    charge(adj.device, "cheb_norm", "elementwise", flops=4.0 * e_log,
           bytes_moved=12.0 * e_log)
    return Tensor(weight, device=adj.device, work_scale=adj.edge_scale,
                  _owns_memory=False)


def mean_norm_weight(adj: SparseAdj) -> Tensor:
    """Per-edge weight ``1 / d_in[dst]`` turning SpMM-sum into mean."""
    weight = adj.inv_in_degrees()[adj.dst]
    e_log = adj.logical_num_edges
    charge(adj.device, "mean_norm", "elementwise", flops=2.0 * e_log,
           bytes_moved=8.0 * e_log)
    return Tensor(weight, device=adj.device, work_scale=adj.edge_scale,
                  _owns_memory=False)


def dst_rows(x: Tensor, adj: SparseAdj) -> Tensor:
    """Destination-side rows of a (bipartite) block's source features.

    Block layout guarantees dst nodes are the prefix of src nodes, so this
    is a cheap slice.
    """
    if x.shape[0] == adj.num_dst:
        return x
    return x[:adj.num_dst]
