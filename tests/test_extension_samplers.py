"""Tests for the extension samplers (SAINT variants, FastGCN, LADIES)."""

import numpy as np
import pytest

from repro.errors import SamplerError
from repro.frameworks import get_framework
from repro.sampling.layerwise import FastGCNSampler, LadiesSampler
from repro.sampling.saint_variants import SaintEdgeSampler, SaintNodeSampler


class TestSaintNodeSampler:
    def test_subgraph_is_induced_and_unique(self, tiny_graph):
        sampler = SaintNodeSampler(tiny_graph, budget=2000, seed=0)
        batch = sampler.sample()
        assert len(np.unique(batch.nodes)) == batch.num_nodes
        for s, d in zip(batch.src[:30], batch.dst[:30]):
            assert batch.nodes[d] in tiny_graph.adj.neighbors(int(batch.nodes[s]))

    def test_degree_bias(self, tiny_graph):
        """High-degree nodes must be over-represented vs their share."""
        sampler = SaintNodeSampler(tiny_graph, budget=2000, seed=0)
        degrees = tiny_graph.adj.degrees()
        top = np.argsort(degrees)[::-1][:tiny_graph.num_nodes // 10]
        hits = np.zeros(tiny_graph.num_nodes)
        for _ in range(20):
            hits[sampler.sample().nodes] += 1
        assert hits[top].mean() > hits.mean()

    def test_budget_scaled_down(self, tiny_graph):
        sampler = SaintNodeSampler(tiny_graph, budget=6000, seed=0)
        assert sampler.actual_budget == max(2, round(6000 / tiny_graph.node_scale))

    def test_invalid_budget(self, tiny_graph):
        with pytest.raises(SamplerError):
            SaintNodeSampler(tiny_graph, budget=0)

    def test_epoch_batch_count(self, tiny_graph):
        sampler = SaintNodeSampler(tiny_graph, budget=2000, seed=0)
        assert len(list(sampler.epoch_batches())) == sampler.num_batches()


class TestSaintEdgeSampler:
    def test_endpoints_become_nodes(self, tiny_graph):
        sampler = SaintEdgeSampler(tiny_graph, budget=20000, seed=0)
        batch = sampler.sample()
        assert batch.num_nodes > 0
        assert batch.num_edges > 0

    def test_inverse_degree_bias(self, tiny_graph):
        """Edge sampling favours edges between low-degree endpoints."""
        sampler = SaintEdgeSampler(tiny_graph, budget=20000, seed=0)
        degrees = tiny_graph.adj.degrees()
        batch = sampler.sample()
        sampled_mean_deg = degrees[batch.nodes].mean()
        # the node sampler (degree^2) pulls the other way
        node_batch = SaintNodeSampler(tiny_graph, budget=2000, seed=0).sample()
        assert sampled_mean_deg < degrees[node_batch.nodes].mean()

    def test_work_positive(self, tiny_graph):
        batch = SaintEdgeSampler(tiny_graph, budget=20000, seed=0).sample()
        assert batch.work.items > 0

    def test_zero_budget_rejected(self, tiny_graph):
        with pytest.raises(SamplerError, match="budget must be >= 1"):
            SaintEdgeSampler(tiny_graph, budget=0)


class TestFastGCN:
    def test_block_structure(self, tiny_graph):
        sampler = FastGCNSampler(tiny_graph, layer_sizes=(2000, 2000),
                                 batch_size=400, seed=0)
        roots = tiny_graph.train_nodes()[:6]
        batch = sampler.sample(roots)
        assert len(batch.blocks) == 2
        assert np.array_equal(batch.blocks[-1].dst_nodes, roots)
        assert np.array_equal(batch.blocks[0].dst_nodes, batch.blocks[1].src_nodes)

    def test_edges_come_from_graph(self, tiny_graph):
        sampler = FastGCNSampler(tiny_graph, layer_sizes=(3000, 3000), seed=0)
        batch = sampler.sample(tiny_graph.train_nodes()[:5])
        block = batch.blocks[-1]
        for ls, ld in zip(block.src, block.dst):
            assert (block.src_nodes[ls]
                    in tiny_graph.adj.neighbors(int(block.dst_nodes[ld])))

    def test_isolated_nodes_appear_with_small_layers(self, tiny_graph):
        """FastGCN's known failure mode: tiny layer budgets isolate roots."""
        sampler = FastGCNSampler(tiny_graph, layer_sizes=(40, 40), seed=0)
        sampler.sample(tiny_graph.train_nodes()[:30])
        assert sampler.last_isolated_fraction > 0.0

    def test_large_layers_reduce_isolation(self, tiny_graph):
        small = FastGCNSampler(tiny_graph, layer_sizes=(40, 40), seed=0)
        big = FastGCNSampler(tiny_graph, layer_sizes=(100000, 100000), seed=0)
        roots = tiny_graph.train_nodes()[:30]
        small.sample(roots)
        big.sample(roots)
        assert big.last_isolated_fraction <= small.last_isolated_fraction

    def test_empty_roots_rejected(self, tiny_graph):
        with pytest.raises(SamplerError):
            FastGCNSampler(tiny_graph, seed=0).sample(np.array([], dtype=np.int64))

    def test_empty_layer_sizes_rejected(self, tiny_graph):
        with pytest.raises(SamplerError):
            FastGCNSampler(tiny_graph, layer_sizes=())


@pytest.mark.parametrize("sampler_cls", [FastGCNSampler, LadiesSampler])
class TestLayerwiseEpoch:
    def test_epoch_covers_every_train_node_once(self, tiny_graph, sampler_cls):
        sampler = sampler_cls(tiny_graph, layer_sizes=(200, 200),
                              batch_size=2000, seed=0)
        train = tiny_graph.train_nodes()
        roots = [b.output_nodes for b in sampler.epoch_batches()]
        assert len(roots) == sampler.num_batches(train.size)
        assert np.array_equal(np.sort(np.concatenate(roots)), np.sort(train))
        assert all(r.size <= sampler.actual_batch_size for r in roots)

    def test_unshuffled_epoch_keeps_train_order(self, tiny_graph, sampler_cls):
        sampler = sampler_cls(tiny_graph, layer_sizes=(200, 200),
                              batch_size=2000, seed=0)
        roots = [b.output_nodes for b in sampler.epoch_batches(shuffle=False)]
        assert np.array_equal(np.concatenate(roots), tiny_graph.train_nodes())

    def test_num_batches_is_at_least_one(self, tiny_graph, sampler_cls):
        sampler = sampler_cls(tiny_graph, seed=0)
        assert sampler.num_batches(0) == 1
        size = sampler.actual_batch_size
        assert sampler.num_batches(size + 1) == 2


class TestLadies:
    def test_block_structure(self, tiny_graph):
        sampler = LadiesSampler(tiny_graph, layer_sizes=(2000, 2000), seed=0)
        roots = tiny_graph.train_nodes()[:6]
        batch = sampler.sample(roots)
        assert len(batch.blocks) == 2
        assert np.array_equal(batch.blocks[-1].dst_nodes, roots)

    def test_empty_roots_rejected(self, tiny_graph):
        with pytest.raises(SamplerError, match="empty root batch"):
            LadiesSampler(tiny_graph, seed=0).sample(np.array([], dtype=np.int64))

    def test_empty_layer_sizes_rejected(self, tiny_graph):
        with pytest.raises(SamplerError, match="layer_sizes"):
            LadiesSampler(tiny_graph, layer_sizes=())

    def test_draws_are_better_utilized_than_fastgcn(self, tiny_graph):
        """LADIES fixes FastGCN's sparsity issue: its candidates come from
        the frontier's neighborhood, so a much larger share of the drawn
        budget ends up connected to the batch."""
        roots = tiny_graph.train_nodes()[:30]

        def utilization(sampler_cls):
            used, drawn = 0, 0
            for seed in range(5):
                sampler = sampler_cls(tiny_graph, layer_sizes=(1000, 1000),
                                      seed=seed)
                batch = sampler.sample(roots)
                block = batch.blocks[-1]
                # sources beyond the dst prefix are the used candidates
                used += block.src_nodes.size - block.dst_nodes.size
                drawn += sampler.layer_sizes[-1]
            return used / drawn

        assert utilization(LadiesSampler) > utilization(FastGCNSampler)

    def test_charges_more_work_than_fastgcn(self, tiny_graph):
        """The per-layer distribution pass is LADIES' extra overhead."""
        roots = tiny_graph.train_nodes()[:20]
        ladies_work = LadiesSampler(tiny_graph, layer_sizes=(500, 500),
                                    seed=0).sample(roots).work.items
        fast_work = FastGCNSampler(tiny_graph, layer_sizes=(500, 500),
                                   seed=0).sample(roots).work.items
        assert ladies_work > fast_work


class TestFrameworkIntegration:
    @pytest.mark.parametrize("kind", ["saint_node", "saint_edge", "fastgcn", "ladies"])
    def test_wrapped_sampler_produces_batches(self, machine, kind):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        sampler = fw.extension_sampler(fgraph, kind, seed=0)
        before = machine.clock.now
        if kind.startswith("saint"):
            batch = sampler.sample()
        else:
            batch = sampler.sample(fgraph.graph.train_nodes()[:4])
        assert machine.clock.now > before  # sampling was charged
        assert batch.x.shape[0] > 0

    def test_unknown_kind_rejected(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        with pytest.raises(KeyError):
            fw.extension_sampler(fgraph, "frontier")

    def test_pyg_charges_more_for_layerwise(self):
        from repro.hardware.machine import paper_testbed
        times = {}
        for name in ("dglite", "pyglite"):
            machine = paper_testbed()
            fw = get_framework(name)
            fgraph = fw.load("ppi", machine, scale=0.3)
            sampler = fw.extension_sampler(fgraph, "ladies", seed=0)
            before = machine.clock.now
            sampler.sample(fgraph.graph.train_nodes()[:4])
            times[name] = machine.clock.now - before
        assert times["pyglite"] > times["dglite"]
