"""Tests for the GraphSAGE neighborhood sampler algorithm."""

import numpy as np
import pytest

from repro.errors import SamplerError
from repro.sampling.neighbor import NeighborSampler, sample_block_neighbors


class TestSampleBlockNeighbors:
    def test_respects_fanout(self, tiny_graph):
        rng = np.random.default_rng(0)
        seeds = np.arange(20)
        src, counts, _ = sample_block_neighbors(
            tiny_graph.adj.indptr, tiny_graph.adj.indices, seeds, 3, rng
        )
        dst = np.repeat(seeds, counts)
        per_seed = np.bincount(dst, minlength=tiny_graph.num_nodes)
        assert per_seed.max() <= 3

    def test_sampled_edges_exist_in_graph(self, tiny_graph):
        rng = np.random.default_rng(0)
        seeds = np.arange(10)
        src, counts, _ = sample_block_neighbors(
            tiny_graph.adj.indptr, tiny_graph.adj.indices, seeds, 5, rng
        )
        dst = np.repeat(seeds, counts)
        for s, d in zip(src, dst):
            assert s in tiny_graph.adj.neighbors(int(d))

    def test_no_replacement(self, tiny_graph):
        rng = np.random.default_rng(0)
        seeds = np.arange(30)
        src, counts, _ = sample_block_neighbors(
            tiny_graph.adj.indptr, tiny_graph.adj.indices, seeds, 4, rng
        )
        dst = np.repeat(seeds, counts)
        for seed in np.unique(dst):
            mine = src[dst == seed]
            assert len(mine) == len(np.unique(mine))

    def test_counts_examined_candidates(self, tiny_graph):
        rng = np.random.default_rng(0)
        seeds = np.arange(5)
        _, _, examined = sample_block_neighbors(
            tiny_graph.adj.indptr, tiny_graph.adj.indices, seeds, 2, rng
        )
        total_degree = sum(tiny_graph.adj.neighbors(i).size for i in range(5))
        assert examined == total_degree

    def test_invalid_fanout_rejected(self, tiny_graph):
        with pytest.raises(SamplerError):
            sample_block_neighbors(tiny_graph.adj.indptr, tiny_graph.adj.indices,
                                   np.array([0]), 0, np.random.default_rng(0))


class TestNeighborSampler:
    def test_batch_size_shrinks_by_node_scale(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, batch_size=512, seed=0)
        expected = max(2, round(512 / tiny_graph.node_scale))
        assert sampler.actual_batch_size == expected

    def test_num_batches_matches_paper_scale(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, batch_size=512, seed=0)
        train = int(tiny_graph.train_mask.sum())
        logical_train = train * tiny_graph.node_scale
        actual = sampler.num_batches(train)
        assert actual == pytest.approx(logical_train / 512, rel=0.35, abs=2)

    def test_block_structure(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, fanouts=(5, 3), seed=0)
        roots = tiny_graph.train_nodes()[:4]
        batch = sampler.sample(roots)
        assert len(batch.blocks) == 2
        out_block = batch.blocks[-1]
        assert np.array_equal(out_block.dst_nodes, roots)
        # dst nodes are a prefix of src nodes (self-inclusion)
        assert np.array_equal(out_block.src_nodes[:len(roots)], roots)

    def test_blocks_chain(self, tiny_graph):
        """block[k].dst_nodes == block[k+1].src_nodes (DGL layout)."""
        sampler = NeighborSampler(tiny_graph, fanouts=(4, 4), seed=0)
        batch = sampler.sample(tiny_graph.train_nodes()[:3])
        assert np.array_equal(batch.blocks[0].dst_nodes, batch.blocks[1].src_nodes)
        assert np.array_equal(batch.input_nodes, batch.blocks[0].src_nodes)

    def test_local_indices_valid(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, fanouts=(4, 4), seed=0)
        batch = sampler.sample(tiny_graph.train_nodes()[:3])
        for block in batch.blocks:
            if block.num_edges:
                assert block.src.max() < block.src_nodes.size
                assert block.dst.max() < block.dst_nodes.size

    def test_local_edges_map_to_real_edges(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, fanouts=(3, 3), seed=0)
        batch = sampler.sample(tiny_graph.train_nodes()[:3])
        block = batch.blocks[-1]
        for ls, ld in zip(block.src, block.dst):
            global_src = block.src_nodes[ls]
            global_dst = block.dst_nodes[ld]
            assert global_src in tiny_graph.adj.neighbors(int(global_dst))

    def test_work_items_positive_and_scaled(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, seed=0)
        batch = sampler.sample(tiny_graph.train_nodes()[:4])
        assert batch.work.items > 0
        assert batch.work.fetch_bytes > 0

    def test_hop_correction_bounds(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, seed=0)
        corr = sampler.hop_correction(10)
        assert corr >= 1.0 or tiny_graph.stats.avg_degree < sampler._d_actual

    def test_empty_roots_rejected(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, seed=0)
        with pytest.raises(SamplerError):
            sampler.sample(np.array([], dtype=np.int64))

    def test_duplicate_roots_rejected(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, seed=0)
        with pytest.raises(SamplerError, match="first duplicate: 3"):
            sampler.sample(np.array([3, 3, 4]))
        # The failed batch left the graph's relabel scratch clean.
        assert sampler.sample(np.array([3, 4])).blocks[-1].dst_nodes.size == 2

    def test_empty_fanouts_rejected(self, tiny_graph):
        with pytest.raises(SamplerError):
            NeighborSampler(tiny_graph, fanouts=())

    def test_epoch_covers_training_set(self, tiny_graph):
        sampler = NeighborSampler(tiny_graph, batch_size=2000, seed=0)
        seen = []
        for batch in sampler.epoch_batches(shuffle=False):
            seen.extend(batch.output_nodes.tolist())
        assert sorted(seen) == sorted(tiny_graph.train_nodes().tolist())

    def test_deterministic_given_seed(self, tiny_graph):
        roots = tiny_graph.train_nodes()[:4]
        a = NeighborSampler(tiny_graph, seed=5).sample(roots)
        b = NeighborSampler(tiny_graph, seed=5).sample(roots)
        assert np.array_equal(a.input_nodes, b.input_nodes)
