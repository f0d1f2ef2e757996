"""Row reuse in the layer-0 SpMM of a serving window is exact.

A serving window keeps one :class:`~repro.kernels.adj.RowMemo` of
layer-0 neighbour means by global node id.  These tests hold the memo to
the bytes the plain kernels produce: every SAGE layer output of a window
equals the same window on the reference kernels (which never read a
memo), and memo rows equal the full-graph SpMM rows for any sequence of
overlapping batches.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.registry import get_dataset
from repro.frameworks.nn import SAGEConv
from repro.kernels.adj import RowMemo
from repro.kernels.config import use_reference_kernels
from repro.models.inference import batch_blocks
from repro.serving import ServeConfig, run_serving_experiment
from repro.telemetry import session as telemetry_session


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
    def test_every_layer_output_equals_the_reference_kernels(
            self, sage_outputs, key):
        overrides, plan = WINDOWS[key]
        fast = sage_outputs(_config(**overrides), plan)
        with use_reference_kernels():
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
        with use_reference_kernels():
            reference = [sage_outputs(config) for config in windows]
        assert fast == reference


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
        memo = RowMemo(_GRAPH.num_nodes, _X.shape[1], min_degree=min_degree)
        for nodes in batches:
            block = batch_blocks(_GRAPH, np.array(nodes), 2, None)[0]
            block.row_memo = memo
            keys = block.src_nodes[:block.num_dst]
            assert _mean_rows(block, _X).tobytes() == _FULL[keys].tobytes()
        stored = np.flatnonzero(memo.slot >= 0)
        assert memo.rows[memo.slot[stored]].tobytes() == \
            _FULL[stored].tobytes()
        assert (_DEGREES[stored] >= min_degree).all()
