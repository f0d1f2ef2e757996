"""Tests for the fused SpMM kernel and the SparseAdj wrapper."""

import numpy as np
import pytest

from repro.errors import GraphFormatError, PlacementError
from repro.kernels.adj import SparseAdj
from repro.kernels.spmm import spmm
from repro.tensor.tensor import Tensor

RNG = np.random.default_rng(7)


def dense_of(adj: SparseAdj, weight=None) -> np.ndarray:
    dense = np.zeros((adj.num_dst, adj.num_src), dtype=np.float32)
    w = weight if weight is not None else np.ones(adj.num_edges, dtype=np.float32)
    for e in range(adj.num_edges):
        dense[adj.dst[e], adj.src[e]] += w[e]
    return dense


class TestSparseAdj:
    def test_validates_ranges(self):
        with pytest.raises(GraphFormatError):
            SparseAdj(np.array([5]), np.array([0]), 3, 3)
        with pytest.raises(GraphFormatError):
            SparseAdj(np.array([0]), np.array([9]), 3, 3)

    def test_edges_sorted_by_dst(self, small_adj):
        assert np.all(np.diff(small_adj.dst) >= 0)

    def test_degrees(self):
        adj = SparseAdj(np.array([0, 1, 2]), np.array([1, 1, 0]), 3, 2)
        assert adj.in_degrees().tolist() == [1, 2]

    def test_logical_quantities(self):
        adj = SparseAdj(np.array([0]), np.array([1]), 2, 2,
                        node_scale=10.0, edge_scale=50.0)
        assert adj.logical_num_edges == 50.0
        assert adj.logical_num_src == 20.0
        assert adj.structure_nbytes() == pytest.approx(8 * 21 + 8 * 50)

    def test_from_graph(self, tiny_graph):
        adj = SparseAdj.from_graph(tiny_graph)
        assert adj.num_edges == tiny_graph.num_edges
        assert adj.node_scale == pytest.approx(tiny_graph.node_scale)

    def test_with_device_shares_structure(self, small_adj, machine):
        placed = small_adj.with_device(machine.cpu)
        assert placed.device is machine.cpu
        assert placed.src is small_adj.src


class TestSpmmForward:
    def test_matches_dense_reference(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_src, 6)).astype(np.float32))
        out = spmm(small_adj, x)
        assert np.allclose(out.data, dense_of(small_adj) @ x.data, atol=1e-4)

    def test_weighted_matches_dense(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_src, 6)).astype(np.float32))
        w = RNG.random(small_adj.num_edges).astype(np.float32)
        out = spmm(small_adj, x, weight=Tensor(w))
        assert np.allclose(out.data, dense_of(small_adj, w) @ x.data, atol=1e-4)

    def test_bipartite_output_rows(self):
        adj = SparseAdj(np.array([0, 4]), np.array([1, 0]), num_src=5, num_dst=2)
        x = Tensor(np.eye(5, dtype=np.float32))
        out = spmm(adj, x)
        assert out.shape == (2, 5)
        assert out.data[1, 0] == 1.0 and out.data[0, 4] == 1.0

    def test_multihead_unweighted(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_src, 3, 4)).astype(np.float32))
        out = spmm(small_adj, x)
        assert out.shape == (small_adj.num_dst, 3, 4)
        flat = spmm(small_adj, Tensor(x.data.reshape(small_adj.num_src, -1)))
        assert np.allclose(out.data.reshape(small_adj.num_dst, -1), flat.data, atol=1e-4)

    def test_multihead_weighted_per_head(self, small_adj):
        heads = 2
        x = Tensor(RNG.random((small_adj.num_src, heads, 3)).astype(np.float32))
        w = RNG.random((small_adj.num_edges, heads)).astype(np.float32)
        out = spmm(small_adj, x, weight=Tensor(w))
        for h in range(heads):
            ref = dense_of(small_adj, w[:, h]) @ x.data[:, h, :]
            assert np.allclose(out.data[:, h, :], ref, atol=1e-4)

    def test_shape_validation(self, small_adj):
        bad_x = Tensor(np.zeros((small_adj.num_src + 1, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            spmm(small_adj, bad_x)
        x = Tensor(np.zeros((small_adj.num_src, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            spmm(small_adj, x, weight=Tensor(np.zeros(3, dtype=np.float32)))

    def test_multi_head_weight_shape_checked(self, small_adj):
        x = Tensor(np.zeros((small_adj.num_src, 2, 3), dtype=np.float32))
        weight = Tensor(np.zeros((small_adj.num_edges, 3), dtype=np.float32))
        with pytest.raises(ValueError, match=r"multi-head weight must be \(E, H\)"):
            spmm(small_adj, x, weight=weight)

    def test_sum_edges_side_checked(self, small_adj):
        with pytest.raises(ValueError, match="side must be 'src' or 'dst'"):
            small_adj.sum_edges(np.ones(small_adj.num_edges), side="both")

    def test_device_mismatch_rejected(self, machine):
        adj = SparseAdj(np.array([0]), np.array([0]), 1, 1, device=machine.gpu)
        x = Tensor(np.ones((1, 2), dtype=np.float32), device=machine.cpu)
        with pytest.raises(PlacementError):
            spmm(adj, x)


class TestSpmmBackward:
    def test_grad_x_matches_transpose(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_src, 4)).astype(np.float32),
                   requires_grad=True)
        spmm(small_adj, x).sum().backward()
        expected = dense_of(small_adj).T @ np.ones((small_adj.num_dst, 4), dtype=np.float32)
        assert np.allclose(x.grad, expected, atol=1e-4)

    def test_grad_weight_is_sddmm(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_src, 4)).astype(np.float32))
        w = Tensor(RNG.random(small_adj.num_edges).astype(np.float32),
                   requires_grad=True)
        spmm(small_adj, x, weight=w).sum().backward()
        # dL/dw[e] = sum_f x[src[e], f] since grad out is ones
        expected = x.data[small_adj.src].sum(axis=1)
        assert np.allclose(w.grad, expected, atol=1e-4)

    def test_multihead_grads_flow(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_src, 2, 3)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(RNG.random((small_adj.num_edges, 2)).astype(np.float32),
                   requires_grad=True)
        spmm(small_adj, x, weight=w).sum().backward()
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape
        assert np.abs(w.grad).sum() > 0


class TestSpmmCharging:
    def test_charges_logical_work(self, machine):
        adj = SparseAdj(np.array([0, 1]), np.array([0, 1]), 2, 2,
                        device=machine.cpu, edge_scale=1000.0, node_scale=500.0)
        x = Tensor(np.ones((2, 8), dtype=np.float32), device=machine.cpu)
        baseline = machine.clock.now
        spmm(adj, x)
        big = machine.clock.now - baseline

        small = SparseAdj(np.array([0, 1]), np.array([0, 1]), 2, 2,
                          device=machine.cpu)
        baseline = machine.clock.now
        spmm(small, x)
        tiny = machine.clock.now - baseline
        assert big > tiny  # logical scale drives cost, not actual size
