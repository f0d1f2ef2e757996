"""The sparse kernels against the naive oracle, and :class:`SparseAdj`'s
derived structure.

Every kernel in ``repro.kernels`` reduces, multiplies and transposes
through its adjacency's cached structure (segment SpMMs and ``reduceat``
over the dst-sorted edges, in-place CSR ``.data`` swaps, a transpose built
from the src-order permutation).  The equivalence tests run each kernel
forward and backward on an adjacency and on its oracle twin
(``tests/kernel_oracle.py``: ``np.add.at`` scatters, CSR rebuilds,
``.T.tocsr()``), from inputs drawn from one seed, and require the values
and gradients to be equal bit for bit — including empty blocks, isolated
nodes, multi-head features and weighted edges.  The primitives are held
to the oracle directly too, so a divergence the kernels never expose (an
empty row of ``max_edges`` left unfilled) still fails.  And the charge must
not see the schedule: every sweep cell, run once more with the oracle's
primitives in place of the kernels', charges the same, bit for bit.
"""

import numpy as np
import pytest

from repro.bench.harness import run_training_experiment
from repro.bench.sweep import MATRICES, run_cell_once
from repro.errors import GraphFormatError
from repro.frameworks import get_framework
from repro.frameworks.common import with_self_loops
from repro.graph.formats import AdjacencyCOO, induced_subgraph
from repro.hardware import paper_testbed
from repro.kernels.adj import SparseAdj
from repro.kernels.scatter import gather, scatter_add
from repro.kernels.sddmm import (
    fused_gatv2_scores,
    sddmm_u_add_v,
    segment_softmax,
)
from repro.kernels.spmm import spmm
from repro.tensor.tensor import Tensor
from tests import kernel_oracle
from tests.kernel_oracle import OracleAdj, oracle_kernels

SEED = 20260806


def make_adj(case="basic", seed=SEED, **kwargs):
    """Deterministic adjacency fixtures covering the awkward shapes."""
    rng = np.random.default_rng(seed)
    if case == "basic":
        num_src, num_dst, num_edges = 30, 24, 120
        src = rng.integers(0, num_src, num_edges)
        dst = rng.integers(0, num_dst, num_edges)
    elif case == "empty":
        num_src, num_dst = 7, 5
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
    elif case == "isolated":
        # src nodes 20..29 never appear; dst nodes 18..23 receive nothing.
        num_src, num_dst, num_edges = 30, 24, 90
        src = rng.integers(0, 20, num_edges)
        dst = rng.integers(0, 18, num_edges)
    elif case == "hub":
        # Every edge enters the last dst node: one long segment after 23
        # empty ones.
        num_src, num_dst, num_edges = 30, 24, 80
        src = rng.integers(0, num_src, num_edges)
        dst = np.full(num_edges, num_dst - 1)
    else:  # pragma: no cover - guard against typos in parametrize lists
        raise ValueError(case)
    return SparseAdj(src, dst, num_src=num_src, num_dst=num_dst, **kwargs)


def run_kernel(build_inputs, kernel, adj, seed=SEED):
    """One forward + backward through ``kernel`` on ``adj``.

    Uses a random linear functional of the output as the loss so the
    upstream gradient is non-trivial (``.sum()`` would send ones).
    """
    rng = np.random.default_rng(seed)
    inputs = build_inputs(rng, adj)
    out = kernel(adj, *inputs)
    probe = rng.standard_normal(out.shape).astype(np.float32)
    (out * probe).sum().backward()
    grads = tuple(t.grad.copy() if t.grad is not None else None
                  for t in inputs)
    return out.data.copy(), grads


def check_kernel_equivalence(adj, build_inputs, kernel, label):
    """The kernel on ``adj`` equals the kernel on its oracle twin."""
    fast = run_kernel(build_inputs, kernel, adj)
    ref = run_kernel(build_inputs, kernel, OracleAdj.of(adj))
    assert np.array_equal(fast[0], ref[0]), f"{label}: forward"
    assert len(fast[1]) == len(ref[1])
    for i, (gf, gr) in enumerate(zip(fast[1], ref[1])):
        assert (gf is None) == (gr is None), f"{label}: grad[{i}] presence"
        if gf is not None:
            assert np.array_equal(gf, gr), f"{label}: grad[{i}]"


def feat(rng, rows, *tail):
    return Tensor(rng.standard_normal((rows,) + tail).astype(np.float32),
                  requires_grad=True)


CASES = ["basic", "empty", "isolated", "hub"]


def check_primitives_equal_the_oracle(adj):
    """``adj``'s segment reductions (float rows through the incidence
    SpMM, integer rows through ``reduceat``) and its unweighted and
    weighted matmuls equal its oracle twin's, bit for bit."""
    oracle = OracleAdj.of(adj)
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((adj.num_src, 3)).astype(np.float32)
    grad = rng.standard_normal((adj.num_dst, 3)).astype(np.float32)
    per_edge = rng.standard_normal((adj.num_edges, 3)).astype(np.float32)
    counts = rng.integers(-5, 5, (adj.num_edges, 2))
    weights = rng.random(adj.num_edges).astype(np.float32)

    def primitives(a, data):
        return (a.matmul_data(data, x), a.rmatmul(grad, data=data),
                a.sum_edges(per_edge, side="src"), a.sum_edges(per_edge),
                a.sum_edges(counts, side="src"), a.sum_edges(counts),
                a.max_edges(per_edge))

    for data in (None, weights):
        for fast, ref in zip(primitives(adj, data), primitives(oracle, data)):
            assert fast.dtype == ref.dtype and np.array_equal(fast, ref)


@pytest.mark.parametrize("case", CASES)
def test_primitives_equal_the_oracle(case):
    check_primitives_equal_the_oracle(make_adj(case))


class TestScatterEquivalence:
    @pytest.mark.parametrize("case", CASES)
    def test_scatter_add(self, case):
        adj = make_adj(case)
        check_kernel_equivalence(
            adj, lambda rng, a: (feat(rng, a.num_edges, 6),),
            scatter_add, f"scatter_add[{case}]")

    def test_scatter_add_multihead(self):
        adj = make_adj("basic")
        check_kernel_equivalence(
            adj, lambda rng, a: (feat(rng, a.num_edges, 2, 3),),
            scatter_add, "scatter_add[multihead]")

    @pytest.mark.parametrize("side", ["src", "dst"])
    @pytest.mark.parametrize("case", CASES)
    def test_gather_backward(self, case, side):
        adj = make_adj(case)
        rows = adj.num_src if side == "src" else adj.num_dst
        check_kernel_equivalence(
            adj, lambda rng, a: (feat(rng, rows, 5),),
            lambda a, x: gather(a, x, side=side), f"gather[{case},{side}]")


class TestSddmmEquivalence:
    @pytest.mark.parametrize("case", CASES)
    def test_u_add_v(self, case):
        adj = make_adj(case)
        check_kernel_equivalence(
            adj,
            lambda rng, a: (feat(rng, a.num_src, 4), feat(rng, a.num_dst, 4)),
            sddmm_u_add_v, f"u_add_v[{case}]")

    @pytest.mark.parametrize("case", CASES)
    def test_fused_gatv2_scores(self, case):
        adj = make_adj(case)
        check_kernel_equivalence(
            adj,
            lambda rng, a: (feat(rng, a.num_src, 2, 3),
                            feat(rng, a.num_dst, 2, 3),
                            feat(rng, 2, 3)),
            fused_gatv2_scores, f"gatv2[{case}]")

    @pytest.mark.parametrize("case", CASES)
    def test_segment_softmax(self, case):
        adj = make_adj(case)
        check_kernel_equivalence(
            adj, lambda rng, a: (feat(rng, a.num_edges, 2),),
            segment_softmax, f"segment_softmax[{case}]")


class TestSpmmEquivalence:
    @pytest.mark.parametrize("case", CASES)
    def test_unweighted(self, case):
        adj = make_adj(case)
        check_kernel_equivalence(
            adj, lambda rng, a: (feat(rng, a.num_src, 6),),
            spmm, f"spmm[{case}]")

    @pytest.mark.parametrize("case", CASES)
    def test_weighted(self, case):
        adj = make_adj(case)
        check_kernel_equivalence(
            adj,
            lambda rng, a: (feat(rng, a.num_src, 6), feat(rng, a.num_edges)),
            spmm, f"spmm_w[{case}]")

    def test_weighted_multihead(self):
        adj = make_adj("basic")
        check_kernel_equivalence(
            adj,
            lambda rng, a: (feat(rng, a.num_src, 2, 3),
                            feat(rng, a.num_edges, 2)),
            spmm, "spmm_w[multihead]")


class TestGradcheck:
    """Finite-difference checks on the fast path itself (not just parity)."""

    @staticmethod
    def _fd(loss_of, array, index, eps=1e-3):
        orig = array[index]
        array[index] = orig + eps
        up = loss_of()
        array[index] = orig - eps
        down = loss_of()
        array[index] = orig
        return (up - down) / (2.0 * eps)

    def _check(self, make_loss, x, picks):
        make_loss().backward()
        analytic = x.grad.copy()
        for index in picks:
            numeric = self._fd(lambda: float(make_loss().data), x.data, index)
            assert analytic[index] == pytest.approx(numeric, rel=1e-2, abs=1e-3)

    def test_spmm_gradcheck(self):
        adj = make_adj("basic")
        rng = np.random.default_rng(SEED + 1)
        x = feat(rng, adj.num_src, 4)

        def make_loss():
            x.grad = None
            return (spmm(adj, x) * 2.0).sum()

        self._check(make_loss, x, [(0, 0), (5, 2), (adj.num_src - 1, 3)])

    def test_scatter_add_gradcheck(self):
        adj = make_adj("basic")
        rng = np.random.default_rng(SEED + 2)
        msg = feat(rng, adj.num_edges, 3)

        def make_loss():
            msg.grad = None
            return (scatter_add(adj, msg) * 3.0).sum()

        self._check(make_loss, msg, [(0, 0), (17, 1), (adj.num_edges - 1, 2)])

    def test_gather_gradcheck(self):
        adj = make_adj("basic")
        rng = np.random.default_rng(SEED + 3)
        x = feat(rng, adj.num_src, 3)

        def make_loss():
            x.grad = None
            return (gather(adj, x) * 0.5).sum()

        self._check(make_loss, x, [(0, 0), (9, 2)])


class TestFromSortedBlock:
    def test_matches_canonicalizing_constructor(self):
        rng = np.random.default_rng(SEED)
        dst = np.sort(rng.integers(0, 12, 60))
        src = rng.integers(0, 15, 60)
        fast = SparseAdj.from_sorted_block(src, dst, num_src=15, num_dst=12)
        full = SparseAdj(src, dst, num_src=15, num_dst=12)
        assert np.array_equal(fast.src, full.src)
        assert np.array_equal(fast.dst, full.dst)
        assert np.array_equal(fast.indptr, full.indptr)

    def test_rejects_unsorted_dst(self):
        with pytest.raises(GraphFormatError, match="dst-sorted"):
            SparseAdj.from_sorted_block(
                np.array([0, 1]), np.array([3, 1]), num_src=2, num_dst=4)

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(GraphFormatError):
            SparseAdj.from_sorted_block(
                np.array([0, 1]), np.array([0, 9]), num_src=2, num_dst=4)
        with pytest.raises(GraphFormatError):
            SparseAdj.from_sorted_block(
                np.array([0, 1]), np.array([-1, 2]), num_src=2, num_dst=4)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(GraphFormatError):
            SparseAdj.from_sorted_block(
                np.array([0, 1, 2]), np.array([0, 1]), num_src=3, num_dst=2)

    def test_weighted_block_matches_canonicalizing_constructor(self):
        rng = np.random.default_rng(SEED)
        dst = np.sort(rng.integers(0, 12, 60))
        src = rng.integers(0, 15, 60)
        weight = rng.random(60)
        fast = SparseAdj.from_sorted_block(src, dst, num_src=15, num_dst=12,
                                           edge_weight=weight)
        full = kernel_oracle.from_sorted_block(
            SparseAdj, src, dst, num_src=15, num_dst=12, edge_weight=weight)
        assert fast.edge_weight.dtype == np.float32
        assert np.array_equal(fast.edge_weight, full.edge_weight)
        x = rng.standard_normal((15, 3)).astype(np.float32)
        assert np.array_equal(fast.matmul_data(None, x),
                              full.matmul_data(None, x))

    def test_empty_block(self):
        adj = SparseAdj.from_sorted_block(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            num_src=3, num_dst=4)
        assert adj.num_edges == 0
        assert np.array_equal(adj.indptr, np.zeros(5, dtype=adj.indptr.dtype))


class TestCsrReuseInvariants:
    def test_default_data_restored_after_weighted_matmul(self):
        adj = make_adj("basic")
        x = np.random.default_rng(SEED).standard_normal(
            (adj.num_src, 4)).astype(np.float32)
        baseline = adj.matmul_data(None, x).copy()
        weights = np.arange(adj.num_edges, dtype=np.float32)
        adj.matmul_data(weights, x)
        # The shared CSR must come back with its canonical all-ones data.
        assert np.allclose(adj.matmul_data(None, x), baseline)

    def test_weighted_matmul_matches_dense_reference(self):
        adj = make_adj("basic")
        rng = np.random.default_rng(SEED)
        x = rng.standard_normal((adj.num_src, 4)).astype(np.float32)
        w = rng.random(adj.num_edges).astype(np.float32)
        dense = np.zeros((adj.num_dst, 4), dtype=np.float64)
        for e in range(adj.num_edges):
            dense[adj.dst[e]] += w[e] * x[adj.src[e]]
        assert np.allclose(adj.matmul_data(w, x), dense, atol=1e-5)

    def test_rmatmul_matches_dense_reference(self):
        adj = make_adj("basic")
        rng = np.random.default_rng(SEED)
        grad = rng.standard_normal((adj.num_dst, 4)).astype(np.float32)
        w = rng.random(adj.num_edges).astype(np.float32)
        for data in (None, w):
            dense = np.zeros((adj.num_src, 4), dtype=np.float64)
            for e in range(adj.num_edges):
                scale = 1.0 if data is None else data[e]
                dense[adj.src[e]] += scale * grad[adj.dst[e]]
            assert np.allclose(adj.rmatmul(grad, data=data), dense, atol=1e-5)


def run_on_both(build_and_run, seed=SEED):
    """``build_and_run(rng)`` on the kernels, then on the oracle's
    primitives, each from fresh inputs drawn from ``seed``."""
    kernels = build_and_run(np.random.default_rng(seed))
    with oracle_kernels():
        oracle = build_and_run(np.random.default_rng(seed))
    return kernels, oracle


class TestChargedCostInvariance:
    """The cost model must not see which arithmetic schedule executed."""

    def test_device_counters_identical_on_the_oracle(self):
        def run(rng):
            machine = paper_testbed()
            adj = make_adj("basic", device=machine.cpu)
            x = Tensor(rng.standard_normal((adj.num_src, 8)).astype(np.float32),
                       device=machine.cpu, requires_grad=True)
            w = Tensor(rng.random(adj.num_edges).astype(np.float32),
                       device=machine.cpu, requires_grad=True)
            spmm(adj, x, w).sum().backward()
            msg = Tensor(rng.standard_normal(
                (adj.num_edges, 4)).astype(np.float32),
                device=machine.cpu, requires_grad=True)
            scatter_add(adj, msg).sum().backward()
            c = machine.cpu.counters
            return c.flops, c.bytes_moved, dict(c.by_kernel)

        kernels, oracle = run_on_both(run)
        assert kernels == oracle

    def test_experiment_accounting_identical_on_the_oracle(self):
        def run(_rng):
            return run_training_experiment(
                framework="pyglite", dataset="ppi", model="graphsage",
                epochs=1, representative_batches=2, seed=0)

        kernels, oracle = run_on_both(run)
        assert kernels.phases == oracle.phases
        assert kernels.kernel_families == oracle.kernel_families
        assert kernels.total_energy == oracle.total_energy
        assert kernels.losses == oracle.losses

    @pytest.mark.parametrize(
        "cell", [cell for matrix in MATRICES.values() for cell in matrix],
        ids=lambda cell: cell.cell_id)
    def test_every_sweep_cell_costs_the_same_on_the_oracle(self, cell):
        """Why ``BENCH_*.json`` needs no schedule axis: the pair is equal."""
        kernels, oracle = run_on_both(lambda _rng: run_cell_once(cell, seed=0))
        assert kernels == oracle  # (metrics, attribution), bit for bit


DERIVED_SLOTS = ("_indptr", "_mat", "_default_data", "_mat_t", "_perm_src",
                 "_indptr_src", "_in_degrees",
                 "_inv_in_degrees", "_inc_dst", "_inc_src")


def built_slots(adj):
    return {slot for slot in DERIVED_SLOTS if getattr(adj, slot) is not None}


class TestStructureOnDemand:
    """Only the COO arrays exist until something reads derived structure."""

    @pytest.fixture
    def batch_adj(self):
        """A sampler-built mini-batch block adjacency, untouched."""
        machine = paper_testbed()
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        sampler = fw.neighbor_sampler(fgraph, fanouts=(5, 5), seed=0)
        return next(iter(sampler.epoch())).adjs[0]

    @staticmethod
    def eager_twin(adj):
        twin = SparseAdj(adj.src, adj.dst, num_src=adj.num_src,
                         num_dst=adj.num_dst)
        twin._csr()
        return twin

    def test_sampler_batch_holds_no_scipy_matrix(self, batch_adj):
        assert batch_adj.num_edges > 0
        assert built_slots(batch_adj) == set()

    @pytest.mark.parametrize("read", [
        lambda adj: adj.indptr,
        lambda adj: adj.in_degrees(),
    ])
    def test_pointer_reads_build_no_matrix(self, batch_adj, read):
        read(batch_adj)
        assert "_indptr" in built_slots(batch_adj)
        assert batch_adj._mat is None

    def test_matmul_builds_the_csr_once(self, batch_adj):
        x = np.ones((batch_adj.num_src, 2), dtype=np.float32)
        batch_adj.matmul_data(None, x)
        mat = batch_adj._mat
        assert mat is not None and batch_adj._default_data is mat.data
        batch_adj.matmul_data(np.ones(batch_adj.num_edges, np.float32), x)
        assert batch_adj._mat is mat and mat.data is batch_adj._default_data
        assert batch_adj._mat_t is None  # nothing ran backward

    def test_scatter_step_builds_only_its_incidence(self, batch_adj):
        msg = Tensor(np.ones((batch_adj.num_edges, 3), dtype=np.float32),
                     requires_grad=True)
        scatter_add(batch_adj, msg).sum().backward()
        assert built_slots(batch_adj) == {"_indptr", "_inc_dst"}

    def test_spmm_equals_an_eagerly_built_twin_bit_for_bit(self, batch_adj):
        twin = self.eager_twin(batch_adj)
        rng = np.random.default_rng(SEED)
        data = rng.standard_normal((batch_adj.num_src, 6)).astype(np.float32)
        weights = rng.random(batch_adj.num_edges).astype(np.float32)
        results = []
        for adj in (batch_adj.with_device(None), twin):
            x = Tensor(data, requires_grad=True)
            w = Tensor(weights, requires_grad=True)
            out = spmm(adj, x, w) + spmm(adj, x)
            probe = np.linspace(-1, 1, out.data.size, dtype=np.float32)
            (out * probe.reshape(out.shape)).sum().backward()
            results.append((out.data, x.grad, w.grad))
        for lazy, eager in zip(*results):
            assert np.array_equal(lazy, eager)

    def test_views_made_before_and_after_first_use_both_work(self, batch_adj):
        x = np.random.default_rng(SEED).standard_normal(
            (batch_adj.num_src, 4)).astype(np.float32)
        before = batch_adj.with_device(None)
        expected = batch_adj.matmul_data(None, x)
        after = batch_adj.with_device(None)
        # A view made before first use builds its own; one made after
        # shares what exists.
        assert before._mat is None
        assert after._mat is batch_adj._mat
        grad = np.ones((batch_adj.num_dst, 4), dtype=np.float32)
        for view in (before, after):
            assert np.array_equal(view.matmul_data(None, x), expected)
            assert np.array_equal(view.rmatmul(grad), batch_adj.rmatmul(grad))
            assert np.array_equal(view.in_degrees(), batch_adj.in_degrees())

    def test_sampler_block_computes_like_its_oracle_twin(self, batch_adj):
        assert batch_adj.num_edges > 0
        check_primitives_equal_the_oracle(batch_adj)

    def test_unused_batches_leave_no_cyclic_garbage(self, cyclic_garbage):
        def run():
            machine = paper_testbed()
            fw = get_framework("pyglite")
            fgraph = fw.load("ppi", machine, scale=0.3)
            for sampler in (fw.neighbor_sampler(fgraph, seed=0),
                            fw.cluster_sampler(fgraph, seed=0)):
                batch = next(iter(sampler.epoch()))
                batch.adjs[0].in_degrees()
        assert cyclic_garbage(run) == []


class TestDegreeCaches:
    def test_in_degree_cache_is_stable(self):
        adj = make_adj("isolated")
        first = adj.in_degrees()
        assert adj.in_degrees() is first
        assert np.array_equal(first, np.bincount(adj.dst, minlength=adj.num_dst))

    def test_inv_in_degrees_values(self):
        adj = make_adj("isolated")
        inv = adj.inv_in_degrees()
        deg = adj.in_degrees()
        expected = 1.0 / np.maximum(deg, 1)
        assert inv.dtype == np.float32
        assert np.allclose(inv, expected)
        # Isolated dst nodes divide by one, not zero.
        assert np.all(np.isfinite(inv))
        assert adj.inv_in_degrees() is inv


class TestBlockConstructionEquivalence:
    def test_with_self_loops_matches_concat_reference(self):
        rng = np.random.default_rng(SEED)
        adj = SparseAdj(rng.integers(0, 16, 50), rng.integers(0, 16, 50),
                        num_src=16, num_dst=16)
        looped = with_self_loops(adj)
        loops = np.arange(16)
        ref = SparseAdj(np.concatenate([adj.src, loops]),
                        np.concatenate([adj.dst, loops]),
                        num_src=16, num_dst=16)
        assert np.array_equal(looped.src, ref.src)
        assert np.array_equal(looped.dst, ref.dst)
        assert np.array_equal(looped.indptr, ref.indptr)

    def test_induced_subgraph_dst_order(self):
        rng = np.random.default_rng(SEED)
        src = rng.integers(0, 20, 80)
        coo = AdjacencyCOO(20, np.concatenate([src, (src + 7) % 20]),
                           np.concatenate([(src + 7) % 20, src]))
        csr = coo.to_csr()
        nodes = np.array([3, 8, 11, 15, 19])
        by_dst, _ = induced_subgraph(csr, nodes, order="dst")
        by_src, _ = induced_subgraph(csr, nodes, order="src")
        assert np.all(np.diff(by_dst.dst) >= 0)
        # Same edge set on a symmetrized graph, just transposed ownership.
        fwd = set(zip(by_dst.src.tolist(), by_dst.dst.tolist()))
        rev = set(zip(by_src.dst.tolist(), by_src.src.tolist()))
        assert fwd == rev

    def test_induced_subgraph_rejects_bad_order(self):
        csr = AdjacencyCOO(4, np.array([0, 1]), np.array([1, 2])).to_csr()
        with pytest.raises(ValueError):
            induced_subgraph(csr, np.array([0, 1]), order="rows")
