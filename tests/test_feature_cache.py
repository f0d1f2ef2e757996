"""Tests for the partial GPU feature cache."""

import numpy as np
import pytest

from repro.errors import BenchmarkError, DeviceError
from repro.frameworks import get_framework
from repro.frameworks.feature_cache import GpuFeatureCache
from repro.hardware.machine import Machine, paper_testbed


@pytest.fixture
def fgraph(machine):
    return get_framework("dglite").load("ppi", machine, scale=0.3)


class TestConstruction:
    def test_fraction_bounds(self, fgraph):
        with pytest.raises(ValueError):
            GpuFeatureCache(fgraph, fraction=0.0)
        with pytest.raises(ValueError):
            GpuFeatureCache(fgraph, fraction=1.5)

    def test_unknown_policy(self, fgraph):
        with pytest.raises(ValueError):
            GpuFeatureCache(fgraph, policy="lfu")

    def test_requires_gpu(self):
        machine = Machine(gpu_spec=None)
        fgraph = get_framework("dglite").load("ppi", machine, scale=0.3)
        with pytest.raises(DeviceError):
            GpuFeatureCache(fgraph)

    def test_capacity_matches_fraction(self, fgraph):
        cache = GpuFeatureCache(fgraph, fraction=0.25)
        expected = round(0.25 * fgraph.num_nodes)
        assert cache.cached_nodes.size == expected

    def test_fill_charges_transfer_and_pins_memory(self, fgraph, machine):
        before_bytes = machine.pcie.counters.bytes_h2d
        before_mem = machine.gpu.memory.in_use
        cache = GpuFeatureCache(fgraph, fraction=0.5)
        assert machine.pcie.counters.bytes_h2d > before_bytes
        assert machine.gpu.memory.in_use > before_mem
        cache.release()
        assert machine.gpu.memory.in_use == before_mem

    def test_degree_policy_caches_hubs(self, fgraph):
        cache = GpuFeatureCache(fgraph, fraction=0.1, policy="degree")
        degrees = fgraph.graph.adj.degrees()
        assert degrees[cache.cached_nodes].mean() > degrees.mean()


class TestLookups:
    def test_hit_mask(self, fgraph):
        cache = GpuFeatureCache(fgraph, fraction=0.3, policy="degree")
        nodes = np.arange(fgraph.num_nodes)
        mask = cache.hit_mask(nodes)
        assert mask.sum() == cache.cached_nodes.size

    def test_hit_mask_is_pure(self, fgraph):
        """Repeated probes of the same batch must not skew hit_rate."""
        cache = GpuFeatureCache(fgraph, fraction=0.3, policy="degree")
        nodes = np.arange(fgraph.num_nodes)
        cache.hit_mask(nodes)
        cache.hit_mask(nodes)
        assert cache.hits == 0 and cache.misses == 0
        assert cache.hit_rate() == 0.0

    def test_record_counts_once_per_call(self, fgraph):
        cache = GpuFeatureCache(fgraph, fraction=0.3, policy="degree")
        nodes = np.arange(fgraph.num_nodes)
        mask = cache.record(nodes)
        assert np.array_equal(mask, cache.hit_mask(nodes))
        assert cache.hits == cache.cached_nodes.size
        assert cache.hits + cache.misses == nodes.size
        cache.record(nodes)
        assert cache.hits + cache.misses == 2 * nodes.size

    def test_hit_rate_accumulates(self, fgraph):
        cache = GpuFeatureCache(fgraph, fraction=0.5, policy="random", seed=0)
        cache.record(np.arange(fgraph.num_nodes))
        assert cache.hit_rate() == pytest.approx(0.5, abs=0.02)

    def test_degree_cache_beats_random_on_sampled_batches(self, fgraph):
        """The whole point: hubs appear in most sampled neighborhoods."""
        fw = fgraph.framework
        degree_cache = GpuFeatureCache(fgraph, fraction=0.15, policy="degree")
        random_cache = GpuFeatureCache(fgraph, fraction=0.15, policy="random",
                                       seed=1)
        sampler = fw.neighbor_sampler(fgraph, seed=0)
        for batch in list(sampler.epoch())[:5]:
            degree_cache.record(batch.input_nodes)
            random_cache.record(batch.input_nodes)
        assert degree_cache.hit_rate() > random_cache.hit_rate()


class TestTrainerIntegration:
    def _run(self, fraction):
        from repro.bench import run_training_experiment
        return run_training_experiment(
            "dglite", "reddit", "graphsage", placement="cpugpu",
            epochs=2, representative_batches=2,
            feature_cache_fraction=fraction,
        )

    def test_cache_reduces_movement_monotonically(self):
        base = self._run(0.0)
        half = self._run(0.5)
        full = self._run(1.0)
        assert full.phases["data_movement"] < half.phases["data_movement"]
        assert half.phases["data_movement"] < base.phases["data_movement"]

    def test_label_carries_fraction(self):
        assert self._run(0.25).label == "DGL-CPUGPU+cache25"

    def test_cache_with_preload_rejected(self):
        from repro.bench import run_training_experiment
        with pytest.raises(BenchmarkError):
            run_training_experiment("dglite", "ppi", "graphsage",
                                    placement="cpugpu", preload=True,
                                    feature_cache_fraction=0.5)

    def test_cache_with_prefetch_rejected(self, fgraph):
        from repro.models.graphsage import build_graphsage, graphsage_sampler
        from repro.models.trainer import MiniBatchTrainer, TrainConfig
        fw = fgraph.framework
        cache = GpuFeatureCache(fgraph, fraction=0.5)
        sampler = graphsage_sampler(fw, fgraph, seed=0)
        net = build_graphsage(fw, fgraph, hidden=16, seed=0)
        with pytest.raises(BenchmarkError):
            MiniBatchTrainer(fw, fgraph, sampler, net,
                             TrainConfig(placement="cpugpu", prefetch=True),
                             feature_cache=cache)


class TestDeterminism:
    """Regression tests for the stable degree-policy selection order.

    np.argsort on -degrees is an unstable sort: nodes with equal degree
    could land in the cache or not depending on partition order, which
    made `cached_nodes` (and every downstream hit/miss count) vary
    between constructions.  The policy now tie-breaks on node id via
    np.lexsort.
    """

    def test_degree_policy_identical_across_constructions(self, fgraph):
        selections = [
            GpuFeatureCache(fgraph, fraction=0.2, policy="degree").cached_nodes
            for _ in range(3)
        ]
        assert np.array_equal(selections[0], selections[1])
        assert np.array_equal(selections[1], selections[2])

    def test_degree_ties_break_toward_lower_node_id(self, fgraph):
        cache = GpuFeatureCache(fgraph, fraction=0.2, policy="degree")
        degrees = fgraph.graph.adj.degrees()
        cached = set(cache.cached_nodes.tolist())
        boundary = degrees[cache.cached_nodes].min()
        # Among boundary-degree nodes, the cached ones must be exactly
        # the lowest-id prefix: no higher id in, lower id out.
        tied = np.flatnonzero(degrees == boundary)
        tied_cached = sorted(n for n in tied.tolist() if n in cached)
        assert tied_cached == tied.tolist()[:len(tied_cached)]

    @pytest.mark.parametrize("policy", ("degree", "random"))
    def test_hits_plus_misses_is_total(self, fgraph, policy, rng):
        """Property: record() partitions every probe into hits + misses."""
        cache = GpuFeatureCache(fgraph, fraction=0.3, policy=policy, seed=0)
        total = 0
        for _ in range(20):
            nodes = rng.integers(0, fgraph.num_nodes,
                                 size=int(rng.integers(1, 200)))
            mask = cache.hit_mask(nodes)
            before = (cache.hits, cache.misses)
            recorded = cache.record(nodes)
            assert np.array_equal(mask, recorded)
            assert cache.hits - before[0] == int(mask.sum())
            assert cache.misses - before[1] == int((~mask).sum())
            total += nodes.size
        assert cache.hits + cache.misses == total

    def test_counters_byte_identical_in_prometheus_text(self):
        """Two same-seed runs must export identical feature_cache lines."""
        from repro.telemetry.runtime import session as telemetry_session

        def one_run():
            machine = paper_testbed()
            fgraph = get_framework("dglite").load("ppi", machine, scale=0.3)
            with telemetry_session(machine.clock) as sess:
                cache = GpuFeatureCache(fgraph, fraction=0.3,
                                        policy="degree", seed=0)
                sampler = fgraph.framework.neighbor_sampler(fgraph, seed=0)
                for batch in list(sampler.epoch())[:3]:
                    cache.record(batch.input_nodes)
                text = sess.metrics.prometheus_text()
            return "\n".join(line for line in text.splitlines()
                             if "feature_cache" in line)

        first, second = one_run(), one_run()
        assert "feature_cache" in first
        assert first.encode() == second.encode()
