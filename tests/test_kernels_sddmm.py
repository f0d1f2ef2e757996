"""Tests for per-edge kernels: SDDMM, segment softmax, fused GATv2."""

import numpy as np
import pytest

from repro.kernels.adj import SparseAdj
from repro.kernels.scatter import gather
from repro.kernels.sddmm import (
    fused_gatv2_scores,
    sddmm_u_add_v,
    segment_softmax,
)
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor

RNG = np.random.default_rng(23)


class TestSddmmUAddV:
    def test_values(self, small_adj):
        u = Tensor(RNG.random((small_adj.num_src, 3)).astype(np.float32))
        v = Tensor(RNG.random((small_adj.num_dst, 3)).astype(np.float32))
        out = sddmm_u_add_v(small_adj, u, v)
        expected = u.data[small_adj.src] + v.data[small_adj.dst]
        assert np.allclose(out.data, expected)

    def test_gradients(self, small_adj):
        u = Tensor(RNG.random((small_adj.num_src, 2)).astype(np.float32),
                   requires_grad=True)
        v = Tensor(RNG.random((small_adj.num_dst, 2)).astype(np.float32),
                   requires_grad=True)
        sddmm_u_add_v(small_adj, u, v).sum().backward()
        assert np.allclose(u.grad[:, 0],
                           np.bincount(small_adj.src, minlength=small_adj.num_src))
        assert np.allclose(v.grad[:, 0],
                           np.bincount(small_adj.dst, minlength=small_adj.num_dst))

    def test_shape_validation(self, small_adj):
        with pytest.raises(ValueError):
            sddmm_u_add_v(small_adj,
                          Tensor(np.zeros((1, 2), dtype=np.float32)),
                          Tensor(np.zeros((small_adj.num_dst, 2), dtype=np.float32)))


class TestSegmentSoftmax:
    def test_sums_to_one_per_nonempty_dst(self, small_adj):
        scores = Tensor(RNG.random((small_adj.num_edges, 3)).astype(np.float32))
        alpha = segment_softmax(small_adj, scores)
        sums = np.zeros((small_adj.num_dst, 3), dtype=np.float32)
        np.add.at(sums, small_adj.dst, alpha.data)
        nonempty = np.bincount(small_adj.dst, minlength=small_adj.num_dst) > 0
        assert np.allclose(sums[nonempty], 1.0, atol=1e-5)

    def test_invariant_to_shift(self, small_adj):
        scores = RNG.random((small_adj.num_edges, 2)).astype(np.float32)
        a = segment_softmax(small_adj, Tensor(scores))
        b = segment_softmax(small_adj, Tensor(scores + 100.0))
        assert np.allclose(a.data, b.data, atol=1e-5)

    def test_single_edge_segment_is_one(self):
        adj = SparseAdj(np.array([0]), np.array([1]), 2, 2)
        alpha = segment_softmax(adj, Tensor(np.array([[3.0]], dtype=np.float32)))
        assert alpha.data[0, 0] == pytest.approx(1.0)

    def test_gradient_matches_dense_softmax(self):
        # all edges share one destination -> equivalent to a dense softmax
        adj = SparseAdj(np.array([0, 1, 2]), np.array([0, 0, 0]), 3, 1)
        scores_arr = RNG.random((3, 1)).astype(np.float32)
        sparse_in = Tensor(scores_arr.copy(), requires_grad=True)
        (segment_softmax(adj, sparse_in) ** 2).sum().backward()
        # d/dx sum(softmax(x)^2) = s * (2s - <2s, s>), s = softmax(x)
        s = np.exp(scores_arr.ravel()) / np.exp(scores_arr.ravel()).sum()
        dense_grad = s * (2 * s - (2 * s * s).sum())
        assert np.allclose(sparse_in.grad.ravel(), dense_grad, atol=1e-5)

    def test_shape_validation(self, small_adj):
        with pytest.raises(ValueError):
            segment_softmax(small_adj, Tensor(np.zeros((2, 1), dtype=np.float32)))


class TestFusedGatv2:
    def test_matches_unfused_computation(self, small_adj):
        heads, dim = 2, 3
        u = Tensor(RNG.random((small_adj.num_src, heads, dim)).astype(np.float32))
        v = Tensor(RNG.random((small_adj.num_dst, heads, dim)).astype(np.float32))
        att = Tensor(RNG.random((heads, dim)).astype(np.float32))
        fused = fused_gatv2_scores(small_adj, u, v, att, negative_slope=0.2)
        # unfused reference: gather + elementwise + reduce
        g_u = gather(small_adj, u, side="src")
        g_v = gather(small_adj, v, side="dst")
        combined = F.leaky_relu(g_u + g_v, 0.2)
        unfused = (combined * att).sum(axis=2)
        assert np.allclose(fused.data, unfused.data, atol=1e-5)

    def test_gradients_match_unfused(self, small_adj):
        heads, dim = 1, 2
        u_arr = RNG.random((small_adj.num_src, heads, dim)).astype(np.float32)
        att_arr = RNG.random((heads, dim)).astype(np.float32)
        v_arr = RNG.random((small_adj.num_dst, heads, dim)).astype(np.float32)

        u1 = Tensor(u_arr.copy(), requires_grad=True)
        a1 = Tensor(att_arr.copy(), requires_grad=True)
        v1 = Tensor(v_arr.copy(), requires_grad=True)
        fused_gatv2_scores(small_adj, u1, v1, a1).sum().backward()

        u2 = Tensor(u_arr.copy(), requires_grad=True)
        a2 = Tensor(att_arr.copy(), requires_grad=True)
        v2 = Tensor(v_arr.copy(), requires_grad=True)
        g_u = gather(small_adj, u2, side="src")
        g_v = gather(small_adj, v2, side="dst")
        ((F.leaky_relu(g_u + g_v, 0.2) * a2).sum(axis=2)).sum().backward()

        assert np.allclose(u1.grad, u2.grad, atol=1e-4)
        assert np.allclose(v1.grad, v2.grad, atol=1e-4)
        assert np.allclose(a1.grad, a2.grad, atol=1e-3)

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 1.5, -0.1])
    def test_bit_identical_to_select_formula(self, slope):
        """Two-buffer kernel == the np.where formula it replaced, to the
        bit, for every slope and for -0.0 / inf / NaN edge sums."""
        heads, dim = 2, 3
        small_adj = SparseAdj(np.concatenate([[0, 1], RNG.integers(0, 12, 60)]),
                              np.concatenate([[1, 0], RNG.integers(0, 12, 60)]),
                              12, 12)
        specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -1e-45],
                            dtype=np.float32)
        u_arr = RNG.standard_normal((small_adj.num_src, heads, dim)).astype(np.float32)
        v_arr = RNG.standard_normal((small_adj.num_dst, heads, dim)).astype(np.float32)
        # Edges 0->1 and 1->0 sum to the special values themselves.
        u_arr[:2] = specials.reshape(1, heads, dim)
        v_arr[:2] = -0.0
        att_arr = RNG.standard_normal((heads, dim)).astype(np.float32)
        upstream = RNG.standard_normal((small_adj.num_edges, heads)).astype(np.float32)

        u = Tensor(u_arr.copy(), requires_grad=True)
        v = Tensor(v_arr.copy(), requires_grad=True)
        att = Tensor(att_arr.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = fused_gatv2_scores(small_adj, u, v, att, negative_slope=slope)
            out.backward(upstream)

            summed = u_arr[small_adj.src] + v_arr[small_adj.dst]
            activated = np.where(summed > 0, summed, slope * summed)
            want = np.einsum("ehd,hd->eh", activated, att_arr)
            edge_slope = np.where(summed > 0, 1.0, slope).astype(np.float32)
            grad_act = upstream[:, :, None] * att_arr[None, :, :] * edge_slope
            want_u = small_adj.sum_edges(grad_act, side="src")
            want_v = small_adj.sum_edges(grad_act, side="dst")
            want_att = np.einsum("ehd,eh->hd", activated, upstream)

        def bits(array):
            return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)

        assert np.array_equal(bits(out.data), bits(want))
        assert np.array_equal(bits(u.grad), bits(want_u))
        assert np.array_equal(bits(v.grad), bits(want_v))
        assert np.array_equal(bits(att.grad), bits(want_att))
        assert np.array_equal(bits(u.data), bits(u_arr)), "input was written to"
        assert np.array_equal(bits(v.data), bits(v_arr)), "input was written to"

    def test_no_edge_feature_allocation(self, machine):
        """The fused kernel must NOT allocate the E x H x D buffer."""
        adj = SparseAdj(np.array([0, 1]), np.array([0, 1]), 2, 2,
                        device=machine.gpu, edge_scale=1e9)
        u = Tensor(np.ones((2, 1, 64), dtype=np.float32), device=machine.gpu)
        v = Tensor(np.ones((2, 1, 64), dtype=np.float32), device=machine.gpu)
        att = Tensor(np.ones((1, 64), dtype=np.float32), device=machine.gpu)
        before = machine.gpu.memory.in_use
        out = fused_gatv2_scores(adj, u, v, att)  # must not OOM
        # only the E x H score tensor is allocated (64-dim buffer stays inside)
        grown = machine.gpu.memory.in_use - before
        assert grown <= out.logical_nbytes * 1.01

    def test_shape_validation(self, small_adj):
        bad = Tensor(np.zeros((small_adj.num_src, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            fused_gatv2_scores(small_adj, bad, bad, bad)
