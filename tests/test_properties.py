"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.formats import AdjacencyCOO, coalesce, symmetrize
from repro.hardware.memory import MemoryLedger
from repro.kernels.adj import SparseAdj
from repro.kernels.scatter import gather, scatter_add
from repro.kernels.sddmm import segment_softmax
from repro.kernels.spmm import spmm
from repro.simtime import VirtualClock
from repro.tensor.tensor import Tensor

settings.register_profile("repro", max_examples=40, deadline=None)
settings.load_profile("repro")


@st.composite
def edge_lists(draw, max_nodes=24, max_edges=80):
    """A random (num_nodes, src, dst) triple."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


class TestFormatProperties:
    @given(edge_lists())
    def test_csr_roundtrip_preserves_multiset(self, edges):
        n, src, dst = edges
        coo = AdjacencyCOO(n, src, dst)
        back = coo.to_csr().to_coo()
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(
            zip(back.src.tolist(), back.dst.tolist())
        )

    @given(edge_lists())
    def test_degree_sums_equal_edge_count(self, edges):
        n, src, dst = edges
        coo = AdjacencyCOO(n, src, dst)
        assert coo.in_degrees().sum() == coo.num_edges

    @given(edge_lists())
    def test_coalesce_idempotent(self, edges):
        n, src, dst = edges
        once = coalesce(AdjacencyCOO(n, src, dst))
        twice = coalesce(once)
        assert np.array_equal(once.src, twice.src)
        assert np.array_equal(once.dst, twice.dst)

    @given(edge_lists())
    def test_symmetrize_produces_symmetric_set(self, edges):
        n, src, dst = edges
        sym = symmetrize(AdjacencyCOO(n, src, dst))
        pairs = set(zip(sym.src.tolist(), sym.dst.tolist()))
        assert all((d, s) in pairs for s, d in pairs)

    @given(edge_lists())
    def test_transpose_involution(self, edges):
        n, src, dst = edges
        csr = AdjacencyCOO(n, src, dst).to_csr()
        double = csr.transpose().transpose()
        orig = sorted(zip(csr.to_coo().src.tolist(), csr.to_coo().dst.tolist()))
        back = sorted(zip(double.to_coo().src.tolist(), double.to_coo().dst.tolist()))
        assert orig == back


class TestKernelProperties:
    @given(edge_lists(max_nodes=12, max_edges=40),
           st.integers(min_value=1, max_value=5))
    def test_spmm_equals_gather_scatter(self, edges, width):
        n, src, dst = edges
        adj = SparseAdj(src, dst, n, n)
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((n, width)).astype(np.float32))
        fused = spmm(adj, x)
        unfused = scatter_add(adj, gather(adj, x))
        assert np.allclose(fused.data, unfused.data, atol=1e-4)

    @given(edge_lists(max_nodes=12, max_edges=40))
    def test_spmm_linearity(self, edges):
        n, src, dst = edges
        adj = SparseAdj(src, dst, n, n)
        rng = np.random.default_rng(1)
        a = Tensor(rng.random((n, 3)).astype(np.float32))
        b = Tensor(rng.random((n, 3)).astype(np.float32))
        lhs = spmm(adj, a + b)
        rhs = spmm(adj, a) + spmm(adj, b)
        assert np.allclose(lhs.data, rhs.data, atol=1e-4)

    @given(edge_lists(max_nodes=12, max_edges=40))
    def test_segment_softmax_rows_sum_to_one(self, edges):
        n, src, dst = edges
        if src.size == 0:
            return
        adj = SparseAdj(src, dst, n, n)
        scores = Tensor(np.random.default_rng(2).random(
            (adj.num_edges, 2)).astype(np.float32))
        alpha = segment_softmax(adj, scores)
        sums = np.zeros((n, 2), dtype=np.float32)
        np.add.at(sums, adj.dst, alpha.data)
        nonempty = np.bincount(adj.dst, minlength=n) > 0
        assert np.allclose(sums[nonempty], 1.0, atol=1e-4)
        assert np.all(alpha.data >= 0)

    @given(edge_lists(max_nodes=12, max_edges=40))
    def test_spmm_preserves_column_sums(self, edges):
        """sum over dst of (A @ x) == sum over src of out_degree * x."""
        n, src, dst = edges
        adj = SparseAdj(src, dst, n, n)
        x = Tensor(np.ones((n, 1), dtype=np.float32))
        out = spmm(adj, x)
        assert out.data.sum() == pytest.approx(adj.num_edges, abs=1e-2)


class TestAutogradProperties:
    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=12),
           st.floats(0.1, 3.0))
    def test_scaling_rule(self, values, scale):
        """d(c * sum(x^2))/dx == 2c x."""
        arr = np.array(values, dtype=np.float32)
        x = Tensor(arr.copy(), requires_grad=True)
        ((x * x).sum() * scale).backward()
        assert np.allclose(x.grad, 2 * scale * arr, atol=1e-3)

    @given(st.integers(2, 8), st.integers(2, 8))
    def test_matmul_grad_shapes(self, m, k):
        rng = np.random.default_rng(3)
        a = Tensor(rng.random((m, k)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.random((k, 3)).astype(np.float32), requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (m, k)
        assert b.grad.shape == (k, 3)


class TestLedgerProperties:
    @given(st.lists(st.integers(1, 100), min_size=1, max_size=30))
    def test_alloc_release_returns_to_zero(self, sizes):
        ledger = MemoryLedger("dev", capacity=10_000)
        allocs = [ledger.alloc(s) for s in sizes]
        assert ledger.in_use == sum(sizes)
        for alloc in allocs:
            ledger.release(alloc)
        assert ledger.in_use == 0

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=30))
    def test_peak_monotone_and_bounded(self, sizes):
        ledger = MemoryLedger("dev", capacity=10_000)
        for s in sizes:
            ledger.release(ledger.alloc(s))
        assert ledger.peak == max(sizes)


class TestClockProperties:
    @given(st.lists(st.floats(0, 10), min_size=1, max_size=30))
    def test_time_is_sum_of_advances(self, steps):
        clock = VirtualClock()
        for dt in steps:
            clock.advance(dt)
        assert clock.now == pytest.approx(sum(steps), rel=1e-6, abs=1e-9)

    @given(st.lists(st.floats(0.01, 5), min_size=1, max_size=20))
    def test_busy_time_never_exceeds_wall(self, steps):
        clock = VirtualClock()
        for i, dt in enumerate(steps):
            if i % 2 == 0:
                clock.occupy("cpu", dt)
            else:
                clock.advance(dt)
        assert clock.busy_time("cpu") <= clock.now + 1e-9
