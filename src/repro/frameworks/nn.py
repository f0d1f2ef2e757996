"""The conv-layer zoo, written once for both frameworks.

Every layer's default ``forward`` follows DGL's ``g.update_all(message,
reduce)`` pattern, which the runtime lowers to one fused g-SpMM (weighted
aggregation) or g-SDDMM (per-edge score) kernel.  Working sets stay
O(E + N*F): per-edge *feature* buffers are never materialized, only
per-edge scalars/scores (E x H).  PyG's torch-sparse ``matmul`` path is
the same lowering — the active profile prices the kernel at torch-sparse
efficiency (much slower on CPU).

Four layers have a second, **unfused** lowering (the ``Unfused*``
subclasses: same parameters, another ``forward``): the literal gather ->
per-edge compute -> scatter pipeline of PyG's ``MessagePassing``, which
materializes ``E x F`` message buffers whose logical allocation OOMs the
48 GB GPU on Reddit / ogbn-products (Observation 3).  Which lowering a
framework runs is decided in one place, :meth:`Framework.conv
<repro.frameworks.base.Framework.conv>`, from ``profile.fused_convs``
and the :data:`CONVS` table at the bottom of this module.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.frameworks.common import (
    dst_rows,
    gcn_norm_weight,
    mean_norm_weight,
    neg_laplacian_weight,
    with_self_loops,
)
from repro.kernels.adj import SparseAdj
from repro.kernels.scatter import gather, scatter_add
from repro.kernels.sddmm import fused_gatv2_scores, sddmm_u_add_v, segment_softmax
from repro.kernels.spmm import spmm
from repro.tensor import functional as F
from repro.tensor import init
from repro.tensor.module import Linear, Module, Parameter
from repro.tensor.tensor import Tensor


class GCNConv(Module):
    """Kipf & Welling GCN layer: ``H' = D~^-1/2 A~ D~^-1/2 H W``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, bias=bias, seed=seed)

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        adj_sl = with_self_loops(adj)
        norm = gcn_norm_weight(adj_sl)
        h = self.linear(x)
        return spmm(adj_sl, h, weight=norm)


class GCN2Conv(Module):
    """GCNII layer (Chen et al. 2020) with initial residual + identity map.

    ``support = (1-alpha) * A~H + alpha * H0``
    ``out = (1-beta) * support + beta * support @ W``
    """

    def __init__(self, in_features: int, out_features: int, alpha: float = 0.1,
                 beta: float = 0.5, seed: Optional[int] = None) -> None:
        super().__init__()
        if in_features != out_features:
            raise ValueError("GCN2Conv requires in_features == out_features")
        self.alpha = alpha
        self.beta = beta
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), seed=seed))

    def forward(self, adj: SparseAdj, x: Tensor, x0: Optional[Tensor] = None) -> Tensor:
        if x0 is None:
            x0 = x
        adj_sl = with_self_loops(adj)
        norm = gcn_norm_weight(adj_sl)
        h = spmm(adj_sl, x, weight=norm)
        support = h * (1.0 - self.alpha) + x0 * self.alpha
        return support * (1.0 - self.beta) + (support @ self.weight) * self.beta


class ChebConv(Module):
    """Chebyshev spectral conv (Defferrard et al.) of order K.

    With lambda_max = 2 the scaled Laplacian is ``L~ = -D^-1/2 A D^-1/2``;
    the recurrence ``T_k = 2 L~ T_{k-1} - T_{k-2}`` runs as K-1 fused SpMMs.
    """

    def __init__(self, in_features: int, out_features: int, k: int = 3,
                 bias: bool = True, seed: Optional[int] = None) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("ChebConv order k must be >= 1")
        self.k = k
        for i in range(k):
            layer_seed = None if seed is None else seed + i
            setattr(self, f"lin{i}", Linear(in_features, out_features,
                                            bias=(bias and i == 0), seed=layer_seed))

    def _propagate(self, adj: SparseAdj, x: Tensor, norm: Tensor) -> Tensor:
        return spmm(adj, x, weight=norm)

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        norm = neg_laplacian_weight(adj)
        t_prev, t_curr = None, x
        out = self.lin0(x)
        for i in range(1, self.k):
            if i == 1:
                t_next = self._propagate(adj, t_curr, norm)
            else:
                t_next = self._propagate(adj, t_curr, norm) * 2.0 - t_prev
            out = out + getattr(self, f"lin{i}")(t_next)
            t_prev, t_curr = t_curr, t_next
        return out


class UnfusedChebConv(ChebConv):
    """Chebyshev conv — **unfused** in PyG: gather/scatter per hop."""

    def _propagate(self, adj: SparseAdj, x: Tensor, norm: Tensor) -> Tensor:
        # gather materializes E x F messages — the unfused path's cost.
        messages = gather(adj, x, side="src")
        messages = messages * norm.reshape(adj.num_edges, 1)
        return scatter_add(adj, messages)


class SAGEConv(Module):
    """GraphSAGE mean-aggregator layer (supports bipartite blocks)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        self.lin_self = Linear(in_features, out_features, bias=bias, seed=seed)
        neigh_seed = None if seed is None else seed + 100
        self.lin_neigh = Linear(in_features, out_features, bias=False, seed=neigh_seed)

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        mean_w = mean_norm_weight(adj)
        aggregated = spmm(adj, x, weight=mean_w)
        return self.lin_self(dst_rows(x, adj)) + self.lin_neigh(aggregated)


class GATConv(Module):
    """Graph attention layer (Velickovic et al.), fused g-SDDMM scores.

    Output concatenates ``heads`` heads of ``out_features / heads`` dims.
    """

    def __init__(self, in_features: int, out_features: int, heads: int = 4,
                 negative_slope: float = 0.2, seed: Optional[int] = None) -> None:
        super().__init__()
        if out_features % heads:
            raise ValueError("out_features must be divisible by heads")
        self.heads = heads
        self.head_dim = out_features // heads
        self.negative_slope = negative_slope
        self.lin = Linear(in_features, out_features, bias=False, seed=seed)
        att_seed = seed if seed is None else seed + 200
        self.att_src = Parameter(init.xavier_uniform((heads, self.head_dim), seed=att_seed))
        self.att_dst = Parameter(
            init.xavier_uniform((heads, self.head_dim),
                                seed=None if seed is None else seed + 201)
        )

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        z = self.lin(x).reshape(x.shape[0], self.heads, self.head_dim)
        z_dst = dst_rows(z, adj)
        # Per-node attention halves: (N, H) each, then one fused SDDMM.
        a_src = (z * self.att_src).sum(axis=2)
        a_dst = (z_dst * self.att_dst).sum(axis=2)
        scores = sddmm_u_add_v(adj, a_src, a_dst)
        scores = F.leaky_relu(scores, self.negative_slope)
        alpha = segment_softmax(adj, scores)
        out = spmm(adj, z, weight=alpha)
        return out.reshape(adj.num_dst, self.heads * self.head_dim)


class UnfusedGATConv(GATConv):
    """GAT layer — **unfused** in PyG: per-edge feature materialization."""

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        z = self.lin(x).reshape(x.shape[0], self.heads, self.head_dim)
        z_dst = dst_rows(z, adj)
        # Unfused: materialize endpoint features per edge (E x H x D).
        z_src_e = gather(adj, z, side="src")
        z_dst_e = gather(adj, z_dst, side="dst")
        scores = (z_src_e * self.att_src).sum(axis=2) + (z_dst_e * self.att_dst).sum(axis=2)
        scores = F.leaky_relu(scores, self.negative_slope)
        alpha = segment_softmax(adj, scores)
        messages = z_src_e * alpha.reshape(adj.num_edges, self.heads, 1)
        out = scatter_add(adj, messages)
        return out.reshape(adj.num_dst, self.heads * self.head_dim)


class GATv2Conv(Module):
    """GATv2 (Brody et al.): attention MLP after combining endpoints.

    The score ``a . leaky_relu(W_l x_src + W_r x_dst)`` is computed by one
    fused g-SDDMM kernel; the E x H x D intermediate never leaves it.
    """

    def __init__(self, in_features: int, out_features: int, heads: int = 4,
                 negative_slope: float = 0.2, seed: Optional[int] = None) -> None:
        super().__init__()
        if out_features % heads:
            raise ValueError("out_features must be divisible by heads")
        self.heads = heads
        self.head_dim = out_features // heads
        self.negative_slope = negative_slope
        self.lin_src = Linear(in_features, out_features, bias=False, seed=seed)
        self.lin_dst = Linear(in_features, out_features, bias=False,
                              seed=None if seed is None else seed + 300)
        self.att = Parameter(
            init.xavier_uniform((heads, self.head_dim),
                                seed=None if seed is None else seed + 301)
        )

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        z_src = self.lin_src(x).reshape(x.shape[0], self.heads, self.head_dim)
        z_dst_full = self.lin_dst(dst_rows(x, adj))
        z_dst = z_dst_full.reshape(adj.num_dst, self.heads, self.head_dim)
        scores = fused_gatv2_scores(adj, z_src, z_dst, self.att, self.negative_slope)
        alpha = segment_softmax(adj, scores)
        out = spmm(adj, z_src, weight=alpha)
        return out.reshape(adj.num_dst, self.heads * self.head_dim)


class UnfusedGATv2Conv(GATv2Conv):
    """GATv2 layer — **unfused** in PyG (per-edge MLP inputs materialized)."""

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        z_src = self.lin_src(x).reshape(x.shape[0], self.heads, self.head_dim)
        z_dst = self.lin_dst(dst_rows(x, adj)).reshape(adj.num_dst, self.heads, self.head_dim)
        g_src = gather(adj, z_src, side="src")
        g_dst = gather(adj, z_dst, side="dst")
        combined = F.leaky_relu(g_src + g_dst, self.negative_slope)
        product = combined * self.att
        scores = product.sum(axis=2)
        # Host memory only (the tensor and its ledger entry die here, as
        # before): hold the product's buffer until the softmax output
        # exists, so that (E, H) buffer cannot split the freed slot, which
        # ``messages`` would then miss and grow the heap by E x H x D.
        slot = product.data
        del product
        alpha = segment_softmax(adj, scores)
        del slot
        messages = g_src * alpha.reshape(adj.num_edges, self.heads, 1)
        out = scatter_add(adj, messages)
        return out.reshape(adj.num_dst, self.heads * self.head_dim)


class TAGConv(Module):
    """Topology-adaptive GCN (Du et al.): ``sum_k A~^k X W_k`` with K hops."""

    def __init__(self, in_features: int, out_features: int, k: int = 3,
                 bias: bool = True, seed: Optional[int] = None) -> None:
        super().__init__()
        if k < 0:
            raise ValueError("TAGConv k must be >= 0")
        self.k = k
        for i in range(k + 1):
            setattr(self, f"lin{i}", Linear(in_features, out_features,
                                            bias=(bias and i == 0),
                                            seed=None if seed is None else seed + i))

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        adj_sl = with_self_loops(adj)
        norm = gcn_norm_weight(adj_sl)
        out = self.lin0(x)
        h = x
        for i in range(1, self.k + 1):
            h = spmm(adj_sl, h, weight=norm)
            out = out + getattr(self, f"lin{i}")(h)
        return out


class SGConv(Module):
    """Simplified GCN (Wu et al.): ``A~^K X W`` — K SpMMs then one GEMM."""

    def __init__(self, in_features: int, out_features: int, k: int = 2,
                 bias: bool = True, seed: Optional[int] = None) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("SGConv k must be >= 1")
        self.k = k
        self.linear = Linear(in_features, out_features, bias=bias, seed=seed)

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        adj_sl = with_self_loops(adj)
        norm = gcn_norm_weight(adj_sl)
        h = x
        for _ in range(self.k):
            h = spmm(adj_sl, h, weight=norm)
        return self.linear(h)


class APPNPConv(Module):
    """APPNP (Klicpera et al. 2019): predict-then-propagate.

    ``H = MLP(X)`` followed by K personalized-PageRank propagation steps
    ``Z = (1-alpha) A~ Z + alpha H`` — each step one fused SpMM.  Extension
    layer (not part of the paper's Figure 5 eight).
    """

    def __init__(self, in_features: int, out_features: int, k: int = 10,
                 alpha: float = 0.1, seed: Optional[int] = None) -> None:
        super().__init__()
        if k < 1:
            raise ValueError("APPNP k must be >= 1")
        if not (0.0 < alpha < 1.0):
            raise ValueError("APPNP alpha must be in (0, 1)")
        self.k = k
        self.alpha = alpha
        self.linear = Linear(in_features, out_features, seed=seed)

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        adj_sl = with_self_loops(adj)
        norm = gcn_norm_weight(adj_sl)
        h = self.linear(x)
        z = h
        for _ in range(self.k):
            z = spmm(adj_sl, z, weight=norm) * (1.0 - self.alpha) + h * self.alpha
        return z


class GINConv(Module):
    """GIN (Xu et al. 2019): ``MLP((1 + eps) h + sum_neigh h)``, fused sum."""

    def __init__(self, in_features: int, out_features: int,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        self.eps = Parameter(init.zeros((1,)))
        self.lin1 = Linear(in_features, out_features, seed=seed)
        self.lin2 = Linear(out_features, out_features,
                           seed=None if seed is None else seed + 1)

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        aggregated = spmm(adj, x)
        combined = x * (self.eps + 1.0) + aggregated
        return self.lin2(F.relu(self.lin1(combined)))


class UnfusedGINConv(GINConv):
    """GIN — **unfused** in PyG (its MessagePassing default): gather/scatter."""

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        messages = gather(adj, x, side="src")
        aggregated = scatter_add(adj, messages)
        combined = x * (self.eps + 1.0) + aggregated
        return self.lin2(F.relu(self.lin1(combined)))


class GraphConv(Module):
    """Plain sum-aggregation convolution: ``H' = (A + I) H W`` (fused)."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 seed: Optional[int] = None) -> None:
        super().__init__()
        self.linear = Linear(in_features, out_features, bias=bias, seed=seed)

    def forward(self, adj: SparseAdj, x: Tensor) -> Tensor:
        adj_sl = with_self_loops(adj)
        h = self.linear(x)
        return spmm(adj_sl, h)


#: kind -> (fused class, unfused class or None).  The first eight rows are
#: the paper's Figure 5 layers; the last three are extension layers.
CONVS: Dict[str, Tuple[type, Optional[type]]] = {
    "gcn": (GCNConv, None),
    "gcn2": (GCN2Conv, None),
    "cheb": (ChebConv, UnfusedChebConv),
    "sage": (SAGEConv, None),
    "gat": (GATConv, UnfusedGATConv),
    "gatv2": (GATv2Conv, UnfusedGATv2Conv),
    "tag": (TAGConv, None),
    "sg": (SGConv, None),
    "appnp": (APPNPConv, None),
    "gin": (GINConv, UnfusedGINConv),
    "graph": (GraphConv, None),
}
