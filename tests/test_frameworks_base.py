"""Tests for framework loading, sampler wrappers, and batch assembly."""

import numpy as np
import pytest

from repro.datasets import clear_cache
from repro.errors import SamplerError
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.tensor.context import GENERIC_PROFILE, active_profile, charge, use_profile


@pytest.fixture(params=["dglite", "pyglite"])
def framework(request):
    return get_framework(request.param)


class TestGetFramework:
    def test_aliases(self):
        assert get_framework("dgl").name == "dglite"
        assert get_framework("PyG").name == "pyglite"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_framework("jraph")


class TestLoad:
    def test_load_produces_framework_graph(self, framework, machine):
        fgraph = framework.load("ppi", machine, scale=0.3)
        assert fgraph.num_nodes == fgraph.graph.num_nodes
        assert fgraph.features.device is machine.cpu
        assert fgraph.adj.device is machine.cpu

    def test_load_charges_storage_and_build(self, framework, machine):
        framework.load("ppi", machine, scale=0.3)
        assert machine.clock.busy_time("storage") > 0
        assert machine.cpu.counters.busy_seconds > 0

    def test_pyg_loader_faster_than_dgl(self):
        m1, m2 = paper_testbed(), paper_testbed()
        get_framework("dglite").load("ppi", m1, scale=0.3)
        get_framework("pyglite").load("ppi", m2, scale=0.3)
        assert m2.clock.now < m1.clock.now

    def test_unbundled_dataset_pays_raw_penalty(self):
        """ogbn-products is bundled in neither framework."""
        m1, m2 = paper_testbed(), paper_testbed()
        fw = get_framework("pyglite")
        fw.load("yelp", m1, scale=0.1)  # bundled in PyG
        fw.load("ogbn-products", m2, scale=0.1)  # not bundled
        # products is bigger AND penalized; normalize by logical size
        from repro.datasets import dataset_spec
        yelp, products = dataset_spec("yelp"), dataset_spec("ogbn-products")
        per_edge_1 = m1.cpu.counters.busy_seconds / yelp.logical_num_edges
        per_edge_2 = m2.cpu.counters.busy_seconds / products.logical_num_edges
        assert per_edge_2 > per_edge_1


class TestStructureDerivedOncePerDataset:
    """``Framework.load`` of a cached dataset re-derives no structure."""

    def test_loads_share_sorted_edges_but_not_placement(self, framework):
        m1, m2 = paper_testbed(), paper_testbed()
        a = framework.load("ppi", m1, scale=0.3)
        a.adj.rmatmul(np.ones((a.num_nodes, 2), dtype=np.float32))
        b = framework.load("ppi", m2, scale=0.3)
        assert a.graph is b.graph
        # Same buffers: the second load ran no edge sort and no bounds scan.
        assert a.adj.src is b.adj.src and a.adj.dst is b.adj.dst
        # Own derived structure: nothing the first load built is shared.
        assert a.adj is not b.adj and a.adj._mat_t is not None
        assert b.adj._mat is None and b.adj._mat_t is None
        assert a.adj.device is m1.cpu and b.adj.device is m2.cpu
        assert np.all(np.diff(a.adj.dst) >= 0)

    def test_shared_edge_arrays_are_read_only(self, framework, machine):
        adj = framework.load("ppi", machine, scale=0.3).adj
        for shared in (adj.src, adj.dst):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0

    def test_clear_cache_drops_the_memo_with_the_dataset(self, framework):
        before = framework.load("ppi", paper_testbed(), scale=0.3)
        clear_cache()
        after = framework.load("ppi", paper_testbed(), scale=0.3)
        assert after.graph is not before.graph
        assert after.adj.src is not before.adj.src
        assert np.array_equal(after.adj.src, before.adj.src)
        assert np.array_equal(after.adj.dst, before.adj.dst)

class TestCscConversion:
    def test_pyg_charges_once(self, machine):
        fw = get_framework("pyglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        before = machine.clock.now
        fw.neighbor_sampler(fgraph, seed=0)
        first = machine.clock.now - before
        assert first > 0
        before = machine.clock.now
        fw.saint_sampler(fgraph, seed=0)
        assert machine.clock.now - before < first  # already converted

    def test_dgl_needs_no_conversion(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        before = machine.clock.now
        fw.neighbor_sampler(fgraph, seed=0)
        assert machine.clock.now - before == pytest.approx(0.0, abs=1e-9)


class TestNeighborBatches:
    def test_batch_assembly(self, framework, machine):
        fgraph = framework.load("ppi", machine, scale=0.3)
        sampler = framework.neighbor_sampler(fgraph, fanouts=(5, 3),
                                             batch_size=64, seed=0)
        batch = next(iter(sampler.epoch()))
        assert batch.kind == "blocks"
        assert len(batch.adjs) == 2
        assert batch.x.shape[0] == batch.adjs[0].num_src
        assert batch.y.shape[0] == batch.adjs[-1].num_dst
        assert batch.x.device is machine.cpu

    def test_sampling_charges_time(self, framework, machine):
        fgraph = framework.load("ppi", machine, scale=0.3)
        sampler = framework.neighbor_sampler(fgraph, seed=0)
        before = machine.clock.now
        sampler.sample(fgraph.graph.train_nodes()[:4])
        assert machine.clock.now > before

    def test_pyg_sampling_slower(self):
        machines = {}
        for name in ("dglite", "pyglite"):
            machine = paper_testbed()
            fw = get_framework(name)
            fgraph = fw.load("ppi", machine, scale=0.3)
            sampler = fw.neighbor_sampler(fgraph, seed=0)
            before = machine.clock.now
            sampler.sample(fgraph.graph.train_nodes()[:4])
            machines[name] = machine.clock.now - before
        assert machines["pyglite"] > machines["dglite"]

    def test_gpu_mode_requires_preload(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        with pytest.raises(SamplerError):
            fw.neighbor_sampler(fgraph, mode="gpu", seed=0)

    def test_gpu_mode_places_batch_on_gpu(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        fgraph.preload_to_gpu()
        sampler = fw.neighbor_sampler(fgraph, mode="gpu", seed=0)
        batch = sampler.sample(fgraph.graph.train_nodes()[:4])
        assert batch.x.device is machine.gpu

    def test_uva_mode_charges_gpu_and_uva_traffic(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        sampler = fw.neighbor_sampler(fgraph, mode="uva", seed=0)
        before_uva = machine.pcie.counters.bytes_uva
        batch = sampler.sample(fgraph.graph.train_nodes()[:4])
        assert machine.pcie.counters.bytes_uva > before_uva
        assert batch.x.device is machine.gpu

    def test_pyg_has_no_gpu_sampler(self, machine):
        fw = get_framework("pyglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        with pytest.raises(SamplerError):
            fw.neighbor_sampler(fgraph, mode="gpu")
        with pytest.raises(SamplerError):
            fw.neighbor_sampler(fgraph, mode="uva")

    def test_unknown_mode_rejected(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        with pytest.raises(SamplerError):
            fw.neighbor_sampler(fgraph, mode="tpu")


class TestSubgraphBatches:
    @pytest.mark.parametrize("kind", ["cluster", "saint"])
    def test_batch_assembly(self, framework, machine, kind):
        fgraph = framework.load("ppi", machine, scale=0.3)
        if kind == "cluster":
            sampler = framework.cluster_sampler(fgraph, seed=0)
        else:
            sampler = framework.saint_sampler(fgraph, seed=0)
        batch = next(iter(sampler.epoch()))
        assert batch.kind == "subgraph"
        assert len(batch.adjs) == 1
        assert batch.adjs[0].num_src == batch.adjs[0].num_dst == batch.x.shape[0]
        assert batch.train_rows is not None

    def test_cluster_partition_charged_once(self, framework, machine):
        fgraph = framework.load("ppi", machine, scale=0.3)
        sampler = framework.cluster_sampler(fgraph, seed=0)
        before = machine.clock.now
        sampler.ensure_partitioned()
        first = machine.clock.now - before
        assert first > 0
        before = machine.clock.now
        sampler.ensure_partitioned()
        assert machine.clock.now == before

    def test_cluster_partition_computed_once_per_dataset(self):
        """Same cached graph, same drawn seed: one partition, charged per
        sampler all the same (the charge models METIS, not our host)."""
        charged, partitions = [], []
        for name in ("dglite", "pyglite"):
            fw, machine = get_framework(name), paper_testbed()
            fgraph = fw.load("ppi", machine, scale=0.3)
            sampler = fw.cluster_sampler(fgraph, seed=0)
            before = machine.cpu.counters.by_kernel.get("metis.partition", 0)
            sampler.ensure_partitioned()
            charged.append(
                machine.cpu.counters.by_kernel["metis.partition"] - before)
            partitions.append(sampler.algorithm.partition)
        assert partitions[0] is partitions[1]
        assert all(seconds > 0 for seconds in charged)
        other = get_framework("dglite").cluster_sampler(
            get_framework("dglite").load("ppi", paper_testbed(), scale=0.3),
            seed=1)
        assert other.algorithm.partition is not partitions[0]


class TestPreload:
    def test_preload_moves_features_and_structure(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        before = machine.pcie.counters.bytes_h2d
        fgraph.preload_to_gpu()
        moved = machine.pcie.counters.bytes_h2d - before
        assert moved >= fgraph.features.logical_nbytes
        assert fgraph.preloaded_gpu
        assert fgraph.features_on(machine.gpu).device is machine.gpu

    def test_preload_requires_gpu(self):
        from repro.errors import DeviceError
        from repro.hardware.machine import Machine
        machine = Machine(gpu_spec=None)
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        with pytest.raises(DeviceError):
            fgraph.preload_to_gpu()

    def test_preloaded_batches_fetch_on_gpu(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        fgraph.preload_to_gpu()
        sampler = fw.neighbor_sampler(fgraph, seed=0)  # CPU sampling
        batch = sampler.sample(fgraph.graph.train_nodes()[:4])
        assert batch.x.device is machine.gpu  # features already resident


SAMPLER_KINDS = ("neighbor", "cluster", "saint_rw", "saint_node", "saint_edge")


def _sampler(fw_name, kind, machine=None):
    fw = get_framework(fw_name)
    fgraph = fw.load("ppi", machine or paper_testbed(), scale=0.3)
    if kind == "neighbor":
        return fw.neighbor_sampler(fgraph, fanouts=(5, 3), seed=0)
    if kind == "cluster":
        return fw.cluster_sampler(fgraph, seed=0)
    if kind == "saint_rw":
        return fw.saint_sampler(fgraph, seed=0)
    return fw.extension_sampler(fgraph, kind, seed=0)


class TestEpochLeavesNoProfileActive:
    """A sampler's profile is active inside its two stages and nowhere
    else: not between the batches of ``epoch()``, not afterwards."""

    @pytest.fixture(autouse=True)
    def _restore_profile(self):
        # A leak must fail the leaking test, not whichever test runs next.
        with use_profile(GENERIC_PROFILE):
            yield

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_between_batches_and_after_exhaustion(self, framework, kind):
        batches = _sampler(framework.name, kind).epoch()
        for _ in range(2):
            next(batches)
            assert active_profile() is GENERIC_PROFILE
        for _ in batches:
            pass
        assert active_profile() is GENERIC_PROFILE

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_after_abandoning_a_half_consumed_epoch(self, framework, kind):
        batches = _sampler(framework.name, kind).epoch()
        next(batches)
        del batches
        assert active_profile() is GENERIC_PROFILE

    @pytest.mark.parametrize("kind", SAMPLER_KINDS)
    def test_after_interleaved_epochs_of_two_frameworks(self, kind):
        first = _sampler("dglite", kind).epoch()
        second = _sampler("pyglite", kind).epoch()
        next(first), next(second)
        for batches in (first, second):  # exhausted in creation order
            for _ in batches:
                pass
        assert active_profile() is GENERIC_PROFILE

    def test_consumer_op_between_batches_is_priced_under_its_own_profile(self):
        def probe(machine):
            charge(machine.cpu, "probe", "spmm", flops=1e9, bytes_moved=1e9)
            return machine.cpu.counters.by_kernel["probe"]

        generic = probe(paper_testbed())
        with get_framework("pyglite").activate():
            assert probe(paper_testbed()) > generic
        machine = paper_testbed()
        batches = _sampler("pyglite", "saint_rw", machine).epoch()
        next(batches)
        assert probe(machine) == generic
