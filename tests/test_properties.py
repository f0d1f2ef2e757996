"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.graph.formats import AdjacencyCOO, coalesce, stable_order, symmetrize
from repro.graph.generators import correlated_features, weighted_choice
from repro.graph.partition import bfs_order
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


@st.composite
def degenerate_edge_lists(draw):
    """Edge lists that are empty, one edge, one edge repeated, or general."""
    n, src, dst = draw(edge_lists())
    shape = draw(st.sampled_from(("empty", "single", "all-duplicate",
                                  "general")))
    if shape == "empty" or src.size == 0:
        return n, src[:0], dst[:0]
    if shape == "single":
        return n, src[:1], dst[:1]
    if shape == "all-duplicate":
        return n, np.repeat(src[:1], src.size), np.repeat(dst[:1], src.size)
    return n, src, dst


@st.composite
def multi_component_graphs(draw):
    """A CSR over disjoint blocks of shuffled node ids: several components,
    isolated nodes and repeated edges, directed or symmetric."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    n = sum(sizes)
    ids = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    src, dst, offset = [], [], 0
    for size in sizes:
        pairs = draw(st.lists(st.tuples(st.integers(0, size - 1),
                                        st.integers(0, size - 1)),
                              max_size=2 * size))
        if pairs:
            pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
        src += [offset + s for s, _ in pairs]
        dst += [offset + d for _, d in pairs]
        offset += size
    src = ids[np.array(src, dtype=np.int64)]
    dst = ids[np.array(dst, dtype=np.int64)]
    if draw(st.booleans()):
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    return AdjacencyCOO(n, src, dst).to_csr()


@st.composite
def choice_weights(draw):
    """A probability vector with zero weights, one non-zero weight,
    1e-300 weights, or a run of equal ``cdf`` values (zeros after a
    positive weight) inside one bucket, longer than two lookup steps."""
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(("general", "zeros", "one-hot", "tiny",
                                  "run")))
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n,
                               max_size=n)))
    if shape == "zeros":
        w[np.array(draw(st.lists(st.booleans(), min_size=n,
                                 max_size=n)))] = 0.0
    elif shape == "one-hot":
        w = np.zeros(n)
        w[draw(st.integers(0, n - 1))] = 1.0
    elif shape == "tiny":
        w[np.array(draw(st.lists(st.booleans(), min_size=n,
                                 max_size=n)))] = 1e-300
    elif shape == "run":
        # Just past a bucket edge at any power-of-two bucket count.
        edge = 0.5 + 2.0**-30
        w = np.concatenate([[edge], np.zeros(draw(st.integers(3, 40))),
                            w / w.sum() * (1.0 - edge)])
    if w.sum() == 0:
        w[0] = 1.0
    return w / w.sum()


def fifo_bfs_order(adj, seed):
    """Reference BFS: one FIFO queue, one node at a time, restarts from a
    seeded permutation."""
    rng = np.random.default_rng(seed)
    n = adj.num_nodes
    visited = np.zeros(n, dtype=bool)
    order = []
    start_candidates = rng.permutation(n)
    head = 0
    queue = deque()
    while len(order) < n:
        if not queue:
            while visited[start_candidates[head]]:
                head += 1
            root = int(start_candidates[head])
            visited[root] = True
            queue.append(root)
        node = queue.popleft()
        order.append(node)
        for nbr in adj.neighbors(node):
            nbr = int(nbr)
            if not visited[nbr]:
                visited[nbr] = True
                queue.append(nbr)
    return np.array(order, dtype=np.int64)


class TestColdStartOracles:
    @given(multi_component_graphs(), st.integers(0, 2**31 - 1))
    def test_frontier_bfs_equals_fifo_queue(self, adj, seed):
        order = bfs_order(adj, seed=seed)
        assert order.dtype == np.int64
        assert np.array_equal(order, fifo_bfs_order(adj, seed))

    @pytest.mark.parametrize("num_nodes,num_features,noise", [
        (0, 8, 1.0), (3000, 600, 0.7), (2100, 1000, 1.3)])
    def test_blocked_feature_noise_equals_one_draw(self, num_nodes,
                                                   num_features, noise):
        """The noise is drawn in row blocks; several blocks, a partial
        last one and a non-unit scale must give the one-draw bytes."""
        communities = np.random.default_rng(5).integers(0, 7, num_nodes)
        features, _ = correlated_features(communities, num_features, 4,
                                          noise=noise, seed=9)
        rng = np.random.default_rng(9)
        centroids = rng.standard_normal(
            (int(communities.max(initial=-1)) + 1, num_features)
        ).astype(np.float32)
        reference = centroids[communities] + noise * rng.standard_normal(
            (num_nodes, num_features)).astype(np.float32)
        assert features.dtype == reference.dtype
        assert features.tobytes() == reference.tobytes()

    @given(choice_weights(), st.sampled_from((0, 1, 7, 3000)),
           st.booleans(), st.integers(0, 2**31 - 1))
    @example(np.array([0.5 + 2.0**-30, 0, 0, 0, 0, 0.5 - 2.0**-30]), 3000,
             False, 0)
    def test_weighted_choice_equals_rng_choice(self, p, size, array_a, seed):
        """The same picks, and the generator left where ``rng.choice``
        leaves it."""
        a = np.arange(p.size) * 3 + 5 if array_a else p.size
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        picked = weighted_choice(ours, a, size, p)
        reference = theirs.choice(a, size=size, p=p)
        assert picked.dtype == reference.dtype
        assert np.array_equal(picked, reference)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("p", [
        [0.5, np.nan], [1.5, -0.5], [0.5, 0.4], [[0.5, 0.5]], [1.0]])
    def test_weighted_choice_rejects_what_rng_choice_rejects(self, p):
        p = np.array(p)
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(2, size=3, p=p)
        with pytest.raises(ValueError):
            weighted_choice(np.random.default_rng(0), 2, 3, p)

    @given(st.sampled_from((1, 255, 256, 65_535, 65_536, 2**20)), st.data())
    def test_stable_order_equals_stable_argsort(self, bound, data):
        """Across the uint8/uint16/uint32 switch points, ties included."""
        pool = data.draw(st.lists(st.integers(0, bound), min_size=1,
                                  max_size=4))
        ids = np.array(data.draw(st.lists(st.sampled_from(pool),
                                          max_size=200)), dtype=np.int64)
        order = stable_order(ids, bound)
        assert np.array_equal(order, np.argsort(ids, kind="stable"))

    @given(degenerate_edge_lists())
    def test_coalesce_equals_unique_reference(self, edges):
        n, src, dst = edges
        out = coalesce(AdjacencyCOO(n, src, dst))
        keys = np.unique(src * n + dst)
        assert out.src.dtype == out.dst.dtype == np.int64
        assert np.array_equal(out.src, keys // n)
        assert np.array_equal(out.dst, keys % n)

    @given(degenerate_edge_lists())
    def test_symmetrize_equals_unique_reference(self, edges):
        """Both directions packed into one key array give the edges of
        deduplicating the doubled ``src``/``dst`` pair."""
        n, src, dst = edges
        out = symmetrize(AdjacencyCOO(n, src, dst))
        keys = np.unique(np.concatenate([src * n + dst, dst * n + src]))
        assert out.src.dtype == out.dst.dtype == np.int64
        assert np.array_equal(out.src, keys // n)
        assert np.array_equal(out.dst, keys % n)


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
