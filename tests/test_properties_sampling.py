"""Property-based tests on the sampler algorithms (hypothesis)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datasets.base import DatasetSpec, build_dataset
from repro.errors import SamplerError
from repro.graph.formats import INDEX_DTYPE, IdTable
from repro.graph.graph import Split
from repro.sampling.cluster import ClusterSampler
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.randomwalk import RandomWalkSampler
from repro.sampling.relabel import block_locals

settings.register_profile("repro-sampling", max_examples=15, deadline=None)
settings.load_profile("repro-sampling")


def _graph(seed: int):
    spec = DatasetSpec(
        name=f"prop-{seed}",
        description="property-test graph",
        logical_num_nodes=5_000,
        logical_num_edges=40_000,
        num_features=8,
        num_classes=4,
        multilabel=False,
        split=Split(0.6, 0.2, 0.2),
        actual_num_nodes=200,
        actual_num_edges=1600,
        num_communities=4,
        seed=seed,
    )
    return build_dataset(spec)


GRAPH_SEEDS = st.integers(min_value=0, max_value=5)


class TestNeighborProperties:
    @given(GRAPH_SEEDS, st.integers(1, 8), st.integers(1, 8),
           st.integers(0, 100))
    def test_blocks_always_chain(self, gseed, f1, f2, sseed):
        graph = _graph(gseed)
        sampler = NeighborSampler(graph, fanouts=(f1, f2), batch_size=64,
                                  seed=sseed)
        roots = graph.train_nodes()[:5]
        batch = sampler.sample(roots)
        assert np.array_equal(batch.blocks[0].dst_nodes,
                              batch.blocks[1].src_nodes)
        assert np.array_equal(batch.blocks[-1].dst_nodes, roots)
        for block in batch.blocks:
            assert np.array_equal(block.src_nodes[:block.dst_nodes.size],
                                  block.dst_nodes)

    @given(GRAPH_SEEDS, st.integers(1, 6), st.integers(0, 100))
    def test_fanout_bound_holds(self, gseed, fanout, sseed):
        graph = _graph(gseed)
        sampler = NeighborSampler(graph, fanouts=(fanout,), batch_size=64,
                                  seed=sseed)
        batch = sampler.sample(graph.train_nodes()[:8])
        block = batch.blocks[0]
        if block.num_edges:
            per_dst = np.bincount(block.dst)
            assert per_dst.max() <= fanout

    @given(GRAPH_SEEDS, st.integers(0, 50))
    def test_work_is_positive_and_finite(self, gseed, sseed):
        graph = _graph(gseed)
        sampler = NeighborSampler(graph, seed=sseed)
        batch = sampler.sample(graph.train_nodes()[:4])
        assert batch.work.items > 0
        assert np.isfinite(batch.work.items)
        assert np.isfinite(batch.work.fetch_bytes)


class TestClusterProperties:
    @given(GRAPH_SEEDS, st.integers(2, 12), st.integers(1, 4))
    def test_epoch_touches_each_node_at_most_once(self, gseed, parts, per):
        if per > parts:
            return
        graph = _graph(gseed)
        sampler = ClusterSampler(graph, num_parts=parts, parts_per_batch=per,
                                 seed=0)
        seen = []
        for batch in sampler.epoch_batches():
            seen.extend(batch.nodes.tolist())
        assert len(seen) == len(set(seen))

    @given(GRAPH_SEEDS, st.integers(0, 50))
    def test_batch_edges_stay_local(self, gseed, sseed):
        graph = _graph(gseed)
        sampler = ClusterSampler(graph, seed=sseed)
        batch = sampler.sample()
        if batch.num_edges:
            assert batch.src.max() < batch.num_nodes
            assert batch.dst.max() < batch.num_nodes


class TestWalkProperties:
    @given(GRAPH_SEEDS, st.integers(0, 4), st.integers(0, 50))
    def test_walk_rows_are_paths_or_stalls(self, gseed, length, sseed):
        graph = _graph(gseed)
        sampler = RandomWalkSampler(graph, num_roots=100, walk_length=length,
                                    seed=sseed)
        path = sampler.walk(np.arange(min(20, graph.num_nodes)))
        assert path.shape[1] == length + 1
        for row in path:
            for a, b in zip(row[:-1], row[1:]):
                assert a == b or b in graph.adj.neighbors(int(a))

    @given(GRAPH_SEEDS, st.integers(0, 50))
    def test_subgraph_nodes_sorted_unique(self, gseed, sseed):
        graph = _graph(gseed)
        batch = RandomWalkSampler(graph, seed=sseed).sample()
        assert np.array_equal(batch.nodes, np.unique(batch.nodes))


def sort_block_locals(src_global, dst_global, dst_nodes):
    """The sort-based ``block_locals`` the table relabel replaced, kept
    verbatim as its oracle: one ``np.unique(return_inverse=True)`` over
    the concatenated ids, dst ids resolved by ``searchsorted``."""
    src_global = np.asarray(src_global, dtype=INDEX_DTYPE)
    dst_global = np.asarray(dst_global, dtype=INDEX_DTYPE)
    dst_nodes = np.asarray(dst_nodes, dtype=INDEX_DTYPE)

    combined = np.concatenate([dst_nodes, src_global])
    uniq, inverse = np.unique(combined, return_inverse=True)
    # Permute the sorted uniques into block order — seeds first (input
    # order preserved), then the fresh ids in sorted order.  ``to_local``
    # maps a position in ``uniq`` to a position in ``src_nodes``.
    seed_pos = inverse[:dst_nodes.size]
    is_seed = np.zeros(uniq.size, dtype=bool)
    is_seed[seed_pos] = True
    fresh_pos = np.nonzero(~is_seed)[0]
    to_local = np.empty(uniq.size, dtype=INDEX_DTYPE)
    to_local[seed_pos] = np.arange(dst_nodes.size, dtype=INDEX_DTYPE)
    to_local[fresh_pos] = dst_nodes.size + np.arange(
        fresh_pos.size, dtype=INDEX_DTYPE
    )
    src_nodes = np.empty(uniq.size, dtype=INDEX_DTYPE)
    src_nodes[to_local] = uniq
    src_local = to_local[inverse[dst_nodes.size:]]

    if dst_global.size == 0:
        dst_local = np.empty(0, dtype=INDEX_DTYPE)
    else:
        if uniq.size == 0:
            raise SamplerError("cannot relabel against an empty id map")
        pos = np.minimum(np.searchsorted(uniq, dst_global), uniq.size - 1)
        if not np.array_equal(uniq[pos], dst_global):
            missing = dst_global[uniq[pos] != dst_global]
            raise SamplerError(
                f"relabel: {missing.size} id(s) not in the id map "
                f"(first missing: {int(missing[0])})"
            )
        dst_local = to_local[pos]
    return src_nodes, src_local, dst_local


@st.composite
def _edge_lists(draw, num_nodes):
    """``(src_global, dst_global, dst_nodes)`` over ``[0, num_nodes)``:
    duplicate-free seeds in any order, sources anywhere (possibly none,
    possibly all seeds), destinations anywhere — so sometimes outside the
    block's id map, which both implementations must reject."""
    ids = st.integers(0, num_nodes - 1)
    seeds = draw(st.lists(ids, unique=True, max_size=num_nodes))
    src = draw(st.one_of(
        st.lists(ids, max_size=40),
        st.lists(st.sampled_from(seeds), max_size=40) if seeds
        else st.just([]),
    ))
    dst = draw(st.lists(ids, max_size=len(src)))
    return src, dst, seeds


class TestTableRelabelMatchesSort:
    """Law: the id-table ``block_locals`` is the sort, bit for bit."""

    @staticmethod
    def _agree(table, src, dst, seeds):
        try:
            expected = sort_block_locals(src, dst, seeds)
        except SamplerError:
            with pytest.raises(SamplerError, match="not in the id map"):
                block_locals(src, dst, seeds, table)
        else:
            got = block_locals(src, dst, seeds, table)
            for name, g, e in zip(("src_nodes", "src_local", "dst_local"),
                                  got, expected):
                assert g.dtype == e.dtype == INDEX_DTYPE, name
                assert np.array_equal(g, e), name
        # Error or not, the scratch is clean for the next caller.
        assert np.all(table.local == -1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 48).flatmap(lambda n: st.tuples(
        st.just(n), _edge_lists(n), _edge_lists(n))))
    @example((4, ([], [], [0, 3]), ([3, 0, 3], [0, 3], [3, 0])))
    @example((5, ([2, 2], [4], [1]), ([0, 4], [0, 4, 1], [1])))
    def test_back_to_back_blocks_on_one_scratch(self, case):
        num_nodes, first, second = case
        table = IdTable(num_nodes)
        self._agree(table, *first)
        self._agree(table, *second)
        self._agree(table, *first)

    @given(GRAPH_SEEDS, st.integers(1, 8), st.integers(0, 100))
    def test_sampler_blocks_match_the_sort(self, gseed, fanout, sseed):
        graph = _graph(gseed)
        sampler = NeighborSampler(graph, fanouts=(fanout, fanout),
                                  batch_size=64, seed=sseed)
        batch = sampler.sample(graph.train_nodes()[:6])
        for block in batch.blocks:
            src_nodes, src_local, dst_local = sort_block_locals(
                block.src_nodes[block.src], block.dst_nodes[block.dst],
                block.dst_nodes)
            assert np.array_equal(block.src_nodes, src_nodes)
            assert np.array_equal(block.src, src_local)
            assert np.array_equal(block.dst, dst_local)
        assert np.all(graph.adj.id_table.local == -1)
