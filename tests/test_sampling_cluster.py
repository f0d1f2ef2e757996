"""Tests for the ClusterGCN sampler algorithm."""

import numpy as np
import pytest

from repro.errors import SamplerError
from repro.sampling import cluster
from repro.sampling.cluster import ClusterSampler


class TestConfiguration:
    def test_keeps_paper_batch_count(self, tiny_graph):
        sampler = ClusterSampler(tiny_graph, num_parts=2000, parts_per_batch=50, seed=0)
        assert sampler.num_batches() == pytest.approx(40, abs=1)

    def test_actual_parts_bounded_by_graph(self, tiny_graph):
        sampler = ClusterSampler(tiny_graph, num_parts=2000, parts_per_batch=50, seed=0)
        assert sampler.actual_num_parts <= tiny_graph.num_nodes
        assert sampler.actual_parts_per_batch >= 1

    def test_invalid_config_rejected(self, tiny_graph):
        with pytest.raises(SamplerError):
            ClusterSampler(tiny_graph, num_parts=10, parts_per_batch=20)
        with pytest.raises(SamplerError):
            ClusterSampler(tiny_graph, num_parts=10, parts_per_batch=0)

    def test_partition_is_lazy_and_cached(self, tiny_graph):
        sampler = ClusterSampler(tiny_graph, seed=0)
        assert sampler._partition is None
        first = sampler.partition
        assert sampler.partition is first

    def test_partition_is_shared_per_graph_parts_and_seed(self, tiny_graph):
        first = ClusterSampler(tiny_graph, seed=0).partition
        # Same graph, part count and drawn seed: the same read-only object.
        assert ClusterSampler(tiny_graph, seed=0).partition is first
        with pytest.raises(ValueError, match="read-only"):
            first.assignments[0] = 0
        assert ClusterSampler(tiny_graph, seed=1).partition is not first
        assert ClusterSampler(tiny_graph, num_parts=1000, parts_per_batch=50,
                              seed=0).partition is not first

    def test_memoised_partition_leaves_the_rng_stream_alone(
            self, tiny_graph, monkeypatch):
        """A memo hit still draws the partition seed: batches after it are
        the ones the sampler that partitioned produced."""
        partitioned = []
        partition_graph = cluster.partition_graph

        def counting(adj, num_parts, seed):
            partitioned.append(seed)
            return partition_graph(adj, num_parts, seed=seed)

        monkeypatch.setattr(cluster, "partition_graph", counting)
        cold = ClusterSampler(tiny_graph, seed=77).sample().nodes
        warm = ClusterSampler(tiny_graph, seed=77).sample().nodes
        assert len(partitioned) == 1
        assert np.array_equal(warm, cold)


class TestSampling:
    def test_batch_is_union_of_clusters(self, tiny_graph):
        sampler = ClusterSampler(tiny_graph, seed=0)
        part_ids = np.array([0, 1])
        batch = sampler.sample(part_ids)
        expected = np.nonzero(np.isin(sampler.partition.assignments, part_ids))[0]
        assert np.array_equal(np.sort(batch.nodes), np.sort(expected))

    def test_part_ids_outside_the_partition_rejected(self, tiny_graph):
        sampler = ClusterSampler(tiny_graph, seed=0)
        for bad in ([0, sampler.actual_num_parts], [-1, 0]):
            with pytest.raises(SamplerError, match="part ids"):
                sampler.sample(np.array(bad))

    def test_batch_edges_internal(self, tiny_graph):
        sampler = ClusterSampler(tiny_graph, seed=0)
        batch = sampler.sample()
        if batch.num_edges:
            assert batch.src.max() < batch.num_nodes
            assert batch.dst.max() < batch.num_nodes

    def test_scales_reflect_logical_batch(self, tiny_graph):
        sampler = ClusterSampler(tiny_graph, seed=0)
        batch = sampler.sample()
        assert batch.node_scale == pytest.approx(tiny_graph.node_scale)
        # Edge scale is the analytic retention model, never below 1.
        assert batch.edge_scale >= 1.0
        fraction = sampler.actual_parts_per_batch / sampler.actual_num_parts
        expected = (ClusterSampler.EDGE_RETENTION
                    * tiny_graph.stats.logical_num_edges * fraction)
        assert batch.edge_scale * batch.num_edges >= expected * 0.99

    def test_work_accounts_logical_items(self, tiny_graph):
        sampler = ClusterSampler(tiny_graph, seed=0)
        batch = sampler.sample()
        minimum = batch.num_nodes * tiny_graph.node_scale
        assert batch.work.items >= minimum

    def test_epoch_covers_every_node_once(self, tiny_graph):
        sampler = ClusterSampler(tiny_graph, seed=0)
        seen = []
        for batch in sampler.epoch_batches():
            seen.extend(batch.nodes.tolist())
        # each cluster appears exactly once per epoch -> each node once
        # (up to clusters dropped by integer division of parts into batches)
        assert len(seen) == len(set(seen))
        assert len(seen) >= 0.9 * tiny_graph.num_nodes

    def test_deterministic_given_seed(self, tiny_graph):
        a = ClusterSampler(tiny_graph, seed=3).sample(np.array([0, 1]))
        b = ClusterSampler(tiny_graph, seed=3).sample(np.array([0, 1]))
        assert np.array_equal(a.nodes, b.nodes)
