"""Tests for the unfused gather/scatter path (and its deliberate OOM)."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryError
from repro.kernels.adj import SparseAdj
from repro.kernels.scatter import gather, scatter_add
from repro.kernels.spmm import spmm
from repro.tensor.tensor import Tensor

RNG = np.random.default_rng(11)


class TestGather:
    def test_gathers_src_rows(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_src, 5)).astype(np.float32))
        out = gather(small_adj, x, side="src")
        assert np.allclose(out.data, x.data[small_adj.src])

    def test_gathers_dst_rows(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_dst, 5)).astype(np.float32))
        out = gather(small_adj, x, side="dst")
        assert np.allclose(out.data, x.data[small_adj.dst])

    def test_invalid_side_rejected(self, small_adj):
        with pytest.raises(ValueError):
            gather(small_adj, Tensor(np.zeros((40, 2), dtype=np.float32)), side="mid")

    def test_backward_scatters(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_src, 3)).astype(np.float32),
                   requires_grad=True)
        gather(small_adj, x).sum().backward()
        expected = np.zeros_like(x.data)
        np.add.at(expected, small_adj.src, np.ones((small_adj.num_edges, 3)))
        assert np.allclose(x.grad, expected)

    def test_materializes_logical_edge_buffer(self, machine):
        """The unfused path's defining property: E_logical x F allocation."""
        adj = SparseAdj(np.array([0, 1]), np.array([0, 1]), 2, 2,
                        device=machine.cpu, edge_scale=100.0)
        x = Tensor(np.ones((2, 8), dtype=np.float32), device=machine.cpu)
        before = machine.cpu.memory.in_use
        out = gather(adj, x)
        grown = machine.cpu.memory.in_use - before
        assert grown >= out.nbytes * 100

    def test_oom_when_logical_buffer_exceeds_vram(self, machine):
        """PyG's GAT on Reddit: E x F at paper scale blows 48 GB."""
        edge_scale = 1e9  # 2 edges -> 2e9 logical edges
        adj = SparseAdj(np.array([0, 1]), np.array([0, 1]), 2, 2,
                        device=machine.gpu, edge_scale=edge_scale)
        x = Tensor(np.ones((2, 64), dtype=np.float32), device=machine.gpu)
        with pytest.raises(OutOfMemoryError):
            gather(adj, x)


class TestScatter:
    def test_scatter_add_matches_spmm(self, small_adj):
        x = Tensor(RNG.random((small_adj.num_src, 4)).astype(np.float32))
        fused = spmm(small_adj, x)
        unfused = scatter_add(small_adj, gather(small_adj, x))
        assert np.allclose(fused.data, unfused.data, atol=1e-4)

    def test_shape_validation(self, small_adj):
        with pytest.raises(ValueError):
            scatter_add(small_adj, Tensor(np.zeros((3, 2), dtype=np.float32)))

    def test_backward_gathers(self, small_adj):
        msgs = Tensor(RNG.random((small_adj.num_edges, 3)).astype(np.float32),
                      requires_grad=True)
        scatter_add(small_adj, msgs).sum().backward()
        assert np.allclose(msgs.grad, 1.0)

    def test_multihead_messages(self, small_adj):
        msgs = Tensor(RNG.random((small_adj.num_edges, 2, 3)).astype(np.float32))
        out = scatter_add(small_adj, msgs)
        assert out.shape == (small_adj.num_dst, 2, 3)
