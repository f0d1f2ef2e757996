"""Row reuse in the layer-0 SpMM of serving windows is exact.

A cached graph keeps one :class:`~repro.kernels.adj.RowMemo` of layer-0
neighbour means by global node id, over its read-only feature store, and
every serving window on that graph shares it.  These tests hold the memo
to the bytes the plain kernels produce: every SAGE layer output of a
window, alone or after other windows on the same graph, equals the same
window on the oracle kernels (``tests/kernel_oracle.py``, which never
reuse a row), memo rows read
from the store equal the full-graph SpMM rows over gathered features for
any sequence of overlapping batches, and a clean batch never reads the
rows of its layer-0 input past the destinations, which it does not copy.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import clear_cache
from repro.datasets.registry import get_dataset
from repro.frameworks import get_framework
from repro.frameworks.feature_cache import GpuFeatureCache
from repro.frameworks.nn import SAGEConv
from repro.hardware.machine import paper_testbed
from repro.kernels.adj import RowMemo, SparseAdj
from repro.models.graphsage import HIDDEN
from repro.models.inference import batch_blocks
from repro.serving import ServeConfig, run_serving_experiment
from repro.telemetry import session as telemetry_session
from tests.kernel_oracle import oracle_kernels


def _config(**overrides):
    base = dict(framework="dglite", dataset="ppi", rate=200.0,
                num_requests=48, budget_s=0.02, max_batch=8,
                dataset_scale=0.3, seed=0)
    base.update(overrides)
    return ServeConfig(**base)


def _storage_faults(at, count):
    return {"seed": 0,
            "faults": [{"site": "storage.read", "kind": "error", "at": at,
                        "count": count}],
            "policies": {"storage.read": {"max_retries": 1,
                                          "backoff": 0.001}}}


#: name -> (config overrides, fault plan).  ``stale-storage`` is the
#: pinned serving plan: its stale batches come first, so a stale batch
#: that wrote to the memo would poison the clean batches after it.  In
#: ``stale-middle`` clean batches come first, so a stale batch that read
#: the memo would answer with their rows instead of its zero-filled ones.
WINDOWS = {
    "plain": ({}, None),
    "cpu": ({"placement": "cpu"}, None),
    "stale-storage": ({"rate": 1000.0, "degraded_mode": "stale"},
                      _storage_faults(at=2, count=4)),
    "stale-middle": ({"rate": 1000.0, "degraded_mode": "stale"},
                     _storage_faults(at=4, count=2)),
}


@pytest.fixture(autouse=True)
def _cold_memo():
    """Each test starts on freshly built graphs, so on empty memos: a memo
    lives as long as its cached graph, and rows an earlier test kept would
    hide what this test's first windows store."""
    clear_cache()


@pytest.fixture
def sage_outputs(monkeypatch):
    """``sage_outputs(config, plan)``: the bytes of every SAGE layer
    output of one window, with whether a memo served it, in call order."""
    forward = SAGEConv.forward
    calls = []

    def recording(self, adj, x):
        out = forward(self, adj, x)
        calls.append((adj.row_memo is not None, out.data.tobytes()))
        return out

    monkeypatch.setattr(SAGEConv, "forward", recording)

    def run(config, plan=None):
        calls.clear()
        run_serving_experiment(config, fault_plan=plan)
        return list(calls)
    return run


class TestWindowBytes:
    @pytest.mark.parametrize("key", sorted(WINDOWS))
    def test_every_layer_output_equals_the_oracle_kernels(
            self, sage_outputs, key):
        overrides, plan = WINDOWS[key]
        fast = sage_outputs(_config(**overrides), plan)
        with oracle_kernels():
            reference = sage_outputs(_config(**overrides), plan)
        assert [out for _, out in fast] == [out for _, out in reference]
        assert any(memo for memo, _ in fast)

    @pytest.mark.parametrize("key", ["stale-storage", "stale-middle"])
    def test_stale_batches_bypass_the_memo(self, sage_outputs, key):
        overrides, plan = WINDOWS[key]
        served = [memo for memo, _ in
                  sage_outputs(_config(**overrides), plan)[::2]]
        assert False in served and True in served

    def test_windows_at_different_scales_share_nothing(self, sage_outputs):
        windows = [_config(dataset_scale=scale) for scale in (0.3, 0.5, 0.3)]
        fast = [sage_outputs(config) for config in windows]
        with oracle_kernels():
            reference = [sage_outputs(config) for config in windows]
        assert fast == reference


class TestStoreRead:
    @pytest.mark.parametrize("oracle", [False, True], ids=["fast", "oracle"])
    @pytest.mark.parametrize("key", ["plain", "cpu"])
    def test_layer0_rows_past_the_destinations_are_never_read(
            self, sage_outputs, monkeypatch, key, oracle):
        overrides, plan = WINDOWS[key]
        with oracle_kernels():
            expected = sage_outputs(_config(**overrides), plan)
        forward = SAGEConv.forward

        def poisoned(self, adj, x):
            if adj.row_memo is not None:
                x.data[adj.num_dst:] = np.nan
            return forward(self, adj, x)

        monkeypatch.setattr(SAGEConv, "forward", poisoned)
        with oracle_kernels() if oracle else nullcontext():
            assert sage_outputs(_config(**overrides), plan) == expected

    @pytest.mark.parametrize("key", ["stale-storage", "stale-middle"])
    def test_a_stale_batch_gathers_every_source_row(self, monkeypatch, key):
        caches = []
        record = GpuFeatureCache.record

        def recording(self, nodes):
            caches.append(self)
            return record(self, nodes)

        forward = SAGEConv.forward
        inputs = []  # (layer-0 input bytes, store rows with misses zeroed)

        def checking(self, adj, x):
            if adj.row_memo is None and x.shape[1] == store.shape[1]:
                rows = store[adj.src_nodes]
                rows[~caches[-1].hit_mask(adj.src_nodes)] = 0.0
                inputs.append((x.data.tobytes(), rows.tobytes()))
            return forward(self, adj, x)

        monkeypatch.setattr(GpuFeatureCache, "record", recording)
        monkeypatch.setattr(SAGEConv, "forward", checking)
        overrides, plan = WINDOWS[key]
        config = _config(**overrides)
        store = get_dataset(config.dataset,
                            scale=config.dataset_scale).features
        assert store.shape[1] != HIDDEN  # so layer 1 never matches
        result = run_serving_experiment(config, fault_plan=plan)
        assert result.stale > 0 and inputs
        assert all(got == want for got, want in inputs)


class TestRowMemoCounter:
    def test_reused_plus_computed_is_every_clean_layer0_edge(
            self, monkeypatch):
        forward = SAGEConv.forward
        clean_edges = []

        def recording(self, adj, x):
            if adj.row_memo is not None:
                clean_edges.append(adj.num_edges)
            return forward(self, adj, x)

        monkeypatch.setattr(SAGEConv, "forward", recording)
        overrides, plan = WINDOWS["stale-middle"]
        with telemetry_session() as sess:
            run_serving_experiment(_config(**overrides), fault_plan=plan)
        reused, computed = (
            sess.metrics.get("kernel.row_memo.edges", outcome=outcome).value
            for outcome in ("reused", "computed"))
        assert reused > 0 and computed > 0
        assert reused + computed == sum(clean_edges)


#: Windows served one after another on one ppi x0.3 graph, so one memo:
#: clean, stale after clean (a stale write would poison the windows
#: after it), cpu, then clean at another seed and rate.
SEQUENCE = [WINDOWS["plain"], WINDOWS["stale-middle"], WINDOWS["cpu"],
            ({"seed": 1, "rate": 500.0}, None)]


def _reused_edges(sess):
    counter = sess.metrics.get("kernel.row_memo.edges", outcome="reused")
    return counter.value if counter is not None else 0


class TestAcrossWindows:
    def test_every_window_equals_the_oracle_kernels(self, sage_outputs):
        fast = [sage_outputs(_config(**overrides), plan)
                for overrides, plan in SEQUENCE]
        with oracle_kernels():
            reference = [sage_outputs(_config(**overrides), plan)
                         for overrides, plan in SEQUENCE]
        assert ([[out for _, out in window] for window in fast]
                == [[out for _, out in window] for window in reference])

    def test_one_memo_per_cached_graph(self, monkeypatch):
        graph = get_dataset("ppi", scale=0.3)
        memo = RowMemo.of(graph)
        assert memo.count == 0
        forward = SAGEConv.forward
        served = []  # (window, memo, reused edges so far) per clean batch

        def recording(self, adj, x):
            out = forward(self, adj, x)
            if adj.row_memo is not None:
                served.append((window, adj.row_memo, _reused_edges(sess)))
            return out

        monkeypatch.setattr(SAGEConv, "forward", recording)
        with telemetry_session() as sess:
            for window, (overrides, plan) in enumerate(SEQUENCE):
                run_serving_experiment(_config(**overrides), fault_plan=plan)
                if window == 0:
                    after_first = _reused_edges(sess)
        assert {id(used) for _, used, _ in served} == {id(memo)}
        assert RowMemo.of(graph) is memo and memo.count > 0
        first_of_second = next(reused for window, _, reused in served
                               if window == 1)
        assert first_of_second > after_first
        clear_cache()
        fresh = RowMemo.of(get_dataset("ppi", scale=0.3))
        assert fresh is not memo
        assert fresh.count == 0 and (fresh.slot < 0).all()

    def test_only_rows_of_at_least_twice_the_mean_degree_are_kept(self):
        graph = get_dataset("ppi", scale=0.3)
        for overrides, plan in SEQUENCE:
            run_serving_experiment(_config(**overrides), fault_plan=plan)
        memo = RowMemo.of(graph)
        assert memo.min_degree == 2 * graph.num_edges / graph.num_nodes
        degrees = np.diff(SparseAdj.from_graph(graph).indptr)
        kept = np.flatnonzero(memo.slot >= 0)
        assert kept.size == memo.count > 0
        assert (degrees[kept] >= memo.min_degree).all()
        assert memo.count <= np.count_nonzero(degrees >= memo.min_degree)

    def test_the_feature_store_is_read_only(self):
        graph = get_dataset("ppi", scale=0.3)
        fgraph = get_framework("dglite").load("ppi", paper_testbed(),
                                              scale=0.3)
        for store in (graph.features, fgraph.features.data,
                      RowMemo.of(graph).features):
            with pytest.raises(ValueError):
                store[0, 0] = 0.0


_GRAPH = get_dataset("ppi", scale=0.1)
_X = np.random.default_rng(0).standard_normal(
    (_GRAPH.num_nodes, 12)).astype(np.float32)


def _mean_rows(block, x):
    return block.matmul_data(block.inv_in_degrees()[block.dst],
                             x[block.src_nodes])


#: Full-graph mean aggregation and in-degree, one row per global node id.
_FULL_BLOCK = batch_blocks(_GRAPH, np.arange(_GRAPH.num_nodes), 1, None)[0]
assert (_FULL_BLOCK.src_nodes[:_FULL_BLOCK.num_dst]
        == np.arange(_GRAPH.num_nodes)).all()
_FULL = _mean_rows(_FULL_BLOCK, _X)
_DEGREES = np.diff(_FULL_BLOCK.indptr)

_batches = st.lists(
    st.lists(st.integers(0, _GRAPH.num_nodes - 1), min_size=1, max_size=24,
             unique=True),
    min_size=1, max_size=8)


class TestMemoLaw:
    @settings(max_examples=60, deadline=None)
    @given(_batches, st.integers(0, int(2 * _DEGREES.mean())))
    def test_memo_rows_equal_full_csr_rows(self, batches, min_degree):
        memo = RowMemo(_X, min_degree=min_degree)
        for nodes in batches:
            block = batch_blocks(_GRAPH, np.array(nodes), 2, None)[0]
            block.row_memo = memo
            keys = block.src_nodes[:block.num_dst]
            assert _mean_rows(block, _X).tobytes() == _FULL[keys].tobytes()
        stored = np.flatnonzero(memo.slot >= 0)
        assert memo.rows[memo.slot[stored]].tobytes() == \
            _FULL[stored].tobytes()
        assert (_DEGREES[stored] >= min_degree).all()
