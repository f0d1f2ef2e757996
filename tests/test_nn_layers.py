"""Tests for the conv layers of both frameworks: shapes, math, gradients."""

import numpy as np
import pytest

from repro.frameworks import get_framework, nn
from repro.kernels.adj import SparseAdj
from repro.tensor.tensor import Tensor

RNG = np.random.default_rng(31)
KINDS = ("gcn", "gcn2", "cheb", "sage", "gat", "gatv2", "tag", "sg")


@pytest.fixture
def adj():
    src = RNG.integers(0, 30, 240)
    dst = RNG.integers(0, 30, 240)
    return SparseAdj(src, dst, 30, 30)


@pytest.fixture
def x():
    return Tensor(RNG.random((30, 12)).astype(np.float32), requires_grad=True)


def make(fw_name: str, kind: str, in_f=12, out_f=8, seed=3):
    fw = get_framework(fw_name)
    if kind == "gcn2":
        return fw.conv(kind, in_f, in_f, seed=seed)
    return fw.conv(kind, in_f, out_f, seed=seed)


@pytest.mark.parametrize("fw_name", ["dglite", "pyglite"])
@pytest.mark.parametrize("kind", KINDS)
class TestAllLayers:
    def test_output_shape(self, fw_name, kind, adj, x):
        conv = make(fw_name, kind)
        out = conv(adj, x)
        expected_cols = 12 if kind == "gcn2" else 8
        assert out.shape == (30, expected_cols)

    def test_gradients_reach_all_parameters(self, fw_name, kind, adj, x):
        conv = make(fw_name, kind)
        conv(adj, x).sum().backward()
        for name, param in conv.named_parameters():
            assert param.grad is not None, f"{name} got no gradient"
            assert np.isfinite(param.grad).all()

    def test_input_gradient_flows(self, fw_name, kind, adj, x):
        conv = make(fw_name, kind)
        conv(adj, x).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0

    def test_deterministic_with_seed(self, fw_name, kind, adj, x):
        a = make(fw_name, kind)(adj, x)
        b = make(fw_name, kind)(adj, x)
        assert np.allclose(a.data, b.data)

    def test_output_finite(self, fw_name, kind, adj, x):
        out = make(fw_name, kind)(adj, x)
        assert np.isfinite(out.data).all()


class TestFrameworkEquivalence:
    """Same seed -> identical weights -> identical outputs across frameworks.

    The two frameworks take different kernel *paths* (fused vs unfused);
    the math must agree to float precision.
    """

    @pytest.mark.parametrize("kind", KINDS)
    def test_outputs_match(self, kind, adj, x):
        a = make("dglite", kind)(adj, x)
        b = make("pyglite", kind)(adj, x)
        assert np.allclose(a.data, b.data, atol=1e-4), kind

    @pytest.mark.parametrize(
        "kind", [kind for kind, (_, unfused) in nn.CONVS.items() if unfused])
    def test_unfused_gradients_match_fused(self, kind, adj):
        x1 = Tensor(RNG.random((30, 12)).astype(np.float32), requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        fused, unfused = nn.CONVS[kind]
        fused(12, 8, seed=3)(adj, x1).sum().backward()
        unfused(12, 8, seed=3)(adj, x2).sum().backward()
        assert np.allclose(x1.grad, x2.grad, atol=1e-3), kind


class TestSpecificMath:
    def test_gcn_row_of_isolated_node_is_bias_plus_self(self):
        # node 2 isolated except its self-loop added by the layer
        adj = SparseAdj(np.array([0]), np.array([1]), 3, 3)
        x = Tensor(np.eye(3, dtype=np.float32))
        conv = nn.GCNConv(3, 4, bias=False, seed=0)
        out = conv(adj, x)
        # isolated node: out = 1.0 * W[2] (self loop, degree 1)
        assert np.allclose(out.data[2], conv.linear.weight.data[2], atol=1e-5)

    def test_sage_mean_aggregation(self):
        adj = SparseAdj(np.array([0, 1]), np.array([2, 2]), 3, 3)
        x = Tensor(np.array([[2.0], [4.0], [0.0]], dtype=np.float32))
        conv = nn.SAGEConv(1, 1, bias=False, seed=0)
        out = conv(adj, x)
        w_self = conv.lin_self.weight.data[0, 0]
        w_neigh = conv.lin_neigh.weight.data[0, 0]
        assert out.data[2, 0] == pytest.approx(0.0 * w_self + 3.0 * w_neigh, rel=1e-4)

    def test_gat_attention_rows_convex(self, adj):
        """GAT output of a node lies in the convex hull of its neighbors' z."""
        conv = nn.GATConv(12, 8, heads=1, seed=0)
        x = Tensor(RNG.random((30, 12)).astype(np.float32))
        out = conv(adj, x)
        z = (x @ conv.lin.weight).data
        node = int(adj.dst[0])
        neigh = adj.src[adj.dst == node]
        lo = z[neigh].min(axis=0) - 1e-4
        hi = z[neigh].max(axis=0) + 1e-4
        assert np.all(out.data[node] >= lo) and np.all(out.data[node] <= hi)

    def test_sg_equals_repeated_propagation_plus_linear(self, adj, x):
        conv = nn.SGConv(12, 8, k=2, seed=0)
        out = conv(adj, x)
        # manual: normalize-with-self-loops twice, then linear
        from repro.frameworks.common import gcn_norm_weight, with_self_loops
        from repro.kernels.spmm import spmm
        adj_sl = with_self_loops(adj)
        norm = gcn_norm_weight(adj_sl)
        h = spmm(adj_sl, spmm(adj_sl, x, weight=norm), weight=norm)
        manual = conv.linear(h)
        assert np.allclose(out.data, manual.data, atol=1e-5)

    def test_cheb_k1_is_linear(self, adj, x):
        conv = nn.ChebConv(12, 8, k=1, seed=0)
        out = conv(adj, x)
        assert np.allclose(out.data, conv.lin0(x).data, atol=1e-5)

    def test_gcn2_alpha_one_keeps_x0(self, adj):
        x = Tensor(RNG.random((30, 12)).astype(np.float32))
        conv = nn.GCN2Conv(12, 12, alpha=1.0, beta=0.0, seed=0)
        out = conv(adj, x, x0=x)
        assert np.allclose(out.data, x.data, atol=1e-5)


class TestBipartiteSupport:
    def test_sage_on_block(self):
        """SAGEConv must work on bipartite blocks (num_src > num_dst)."""
        adj = SparseAdj(np.array([0, 3, 4]), np.array([0, 1, 1]),
                        num_src=5, num_dst=2)
        x = Tensor(RNG.random((5, 6)).astype(np.float32))
        conv = nn.SAGEConv(6, 4, seed=0)
        out = conv(adj, x)
        assert out.shape == (2, 4)

    def test_gat_on_block(self):
        adj = SparseAdj(np.array([0, 3, 4]), np.array([0, 1, 1]),
                        num_src=5, num_dst=2)
        x = Tensor(RNG.random((5, 6)).astype(np.float32))
        out = nn.GATConv(6, 4, heads=2, seed=0)(adj, x)
        assert out.shape == (2, 4)

    def test_pyg_sage_matches_on_block(self):
        adj = SparseAdj(np.array([0, 3, 4]), np.array([0, 1, 1]),
                        num_src=5, num_dst=2)
        x = Tensor(RNG.random((5, 6)).astype(np.float32))
        a = nn.SAGEConv(6, 4, seed=1)(adj, x)
        b = get_framework("pyglite").conv("sage", 6, 4, seed=1)(adj, x)
        assert np.allclose(a.data, b.data, atol=1e-5)


class TestConstructorValidation:
    def test_gcn2_requires_square(self):
        with pytest.raises(ValueError):
            nn.GCN2Conv(8, 4)

    def test_gat_heads_divide_out(self):
        with pytest.raises(ValueError):
            nn.GATConv(8, 10, heads=4)
        with pytest.raises(ValueError):
            nn.UnfusedGATv2Conv(8, 10, heads=4)

    def test_cheb_order_positive(self):
        with pytest.raises(ValueError):
            nn.ChebConv(8, 4, k=0)

    def test_unknown_conv_kind(self):
        with pytest.raises(KeyError):
            get_framework("dglite").conv("transformer", 8, 8)
