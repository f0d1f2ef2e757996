"""Tests for the extension conv layers (APPNP, GIN, GraphConv)."""

import numpy as np
import pytest

from repro.frameworks import get_framework, nn
from repro.kernels.adj import SparseAdj
from repro.tensor.tensor import Tensor

RNG = np.random.default_rng(91)
EXT_KINDS = ("appnp", "gin", "graph")


@pytest.fixture
def adj():
    src = RNG.integers(0, 25, 180)
    dst = RNG.integers(0, 25, 180)
    return SparseAdj(src, dst, 25, 25)


@pytest.fixture
def x():
    return Tensor(RNG.random((25, 10)).astype(np.float32), requires_grad=True)


@pytest.mark.parametrize("fw_name", ["dglite", "pyglite"])
@pytest.mark.parametrize("kind", EXT_KINDS)
class TestExtensionLayers:
    def test_shape_and_gradients(self, fw_name, kind, adj, x):
        conv = get_framework(fw_name).conv(kind, 10, 6, seed=4)
        out = conv(adj, x)
        assert out.shape == (25, 6)
        out.sum().backward()
        assert x.grad is not None
        for name, param in conv.named_parameters():
            assert param.grad is not None, name

    def test_deterministic(self, fw_name, kind, adj, x):
        a = get_framework(fw_name).conv(kind, 10, 6, seed=4)(adj, x)
        b = get_framework(fw_name).conv(kind, 10, 6, seed=4)(adj, x)
        assert np.allclose(a.data, b.data)


class TestFrameworkEquivalence:
    @pytest.mark.parametrize("kind", EXT_KINDS)
    def test_outputs_match(self, kind, adj, x):
        a = get_framework("dglite").conv(kind, 10, 6, seed=4)(adj, x)
        b = get_framework("pyglite").conv(kind, 10, 6, seed=4)(adj, x)
        assert np.allclose(a.data, b.data, atol=1e-4), kind


class TestAppnpMath:
    def test_alpha_one_limit_is_mlp(self, adj, x):
        """As alpha -> 1 the propagation collapses to the MLP output."""
        near_one = nn.APPNPConv(10, 6, k=5, alpha=0.999, seed=0)
        out = near_one(adj, x)
        mlp = near_one.linear(x)
        assert np.allclose(out.data, mlp.data, atol=1e-2)

    def test_k_steps_progressively_smooth(self, adj, x):
        """More propagation steps shrink the variance across nodes."""
        shallow = nn.APPNPConv(10, 6, k=1, alpha=0.1, seed=0)(adj, x)
        deep = nn.APPNPConv(10, 6, k=20, alpha=0.1, seed=0)(adj, x)
        assert deep.data.std(axis=0).mean() < shallow.data.std(axis=0).mean()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            nn.APPNPConv(4, 4, k=0)
        with pytest.raises(ValueError):
            nn.APPNPConv(4, 4, alpha=1.0)

    @pytest.mark.parametrize("build, match", [
        (lambda: nn.TAGConv(4, 4, k=-1), "TAGConv k must be >= 0"),
        (lambda: nn.SGConv(4, 4, k=0), "SGConv k must be >= 1"),
    ])
    def test_hop_count_bounds(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


class TestGinMath:
    def test_eps_shifts_self_weight(self, adj):
        x = Tensor(RNG.random((25, 4)).astype(np.float32))
        conv = nn.GINConv(4, 4, seed=0)
        base = conv(adj, x)
        conv.eps.data = np.array([5.0], dtype=np.float32)
        boosted = conv(adj, x)
        assert not np.allclose(base.data, boosted.data)

    def test_pyg_gin_materializes_edges(self, machine):
        """PyG's GIN takes the unfused path: logical E x F memory appears."""
        adj = SparseAdj(np.array([0, 1]), np.array([1, 0]), 2, 2,
                        device=machine.cpu, edge_scale=1000.0)
        x = Tensor(RNG.random((2, 16)).astype(np.float32), device=machine.cpu)
        conv = nn.UnfusedGINConv(16, 8, seed=0)
        before_peak = machine.cpu.memory.peak
        conv(adj, x)
        assert machine.cpu.memory.peak - before_peak >= 2 * 16 * 4 * 1000


class TestGraphConvMath:
    def test_sum_aggregation_with_self_loop(self):
        adj = SparseAdj(np.array([0]), np.array([1]), 2, 2)
        x = Tensor(np.array([[1.0], [2.0]], dtype=np.float32))
        conv = nn.GraphConv(1, 1, bias=False, seed=0)
        out = conv(adj, x)
        w = conv.linear.weight.data[0, 0]
        assert out.data[1, 0] == pytest.approx((1.0 + 2.0) * w, rel=1e-5)
        assert out.data[0, 0] == pytest.approx(1.0 * w, rel=1e-5)
