"""Tests for layer-wise mini-batch inference."""

import numpy as np
import pytest

from repro.errors import BenchmarkError, GraphFormatError, SamplerError
from repro.frameworks import get_framework
from repro.models.evaluate import full_graph_logits
from repro.models.graphsage import build_graphsage
from repro.models.inference import batch_blocks, layerwise_inference


@pytest.fixture
def setup(machine):
    fw = get_framework("dglite")
    fgraph = fw.load("ppi", machine, scale=0.3)
    net = build_graphsage(fw, fgraph, hidden=16, dropout=0.0, seed=0)
    return fw, fgraph, net


class TestLayerwiseInference:
    def test_matches_full_graph_inference(self, setup):
        """Chunked layer-wise inference must equal the one-shot pass."""
        fw, fgraph, net = setup
        chunked = layerwise_inference(fw, fgraph, net, batch_nodes=500)
        reference = full_graph_logits(fw, fgraph, net)
        assert np.allclose(chunked.logits, reference.data, atol=1e-3)

    def test_chunk_size_does_not_change_results(self, setup):
        fw, fgraph, net = setup
        small = layerwise_inference(fw, fgraph, net, batch_nodes=300)
        large = layerwise_inference(fw, fgraph, net, batch_nodes=100000)
        assert np.allclose(small.logits, large.logits, atol=1e-3)

    def test_output_shape(self, setup):
        fw, fgraph, net = setup
        result = layerwise_inference(fw, fgraph, net)
        assert result.logits.shape == (fgraph.num_nodes,
                                       fgraph.stats.num_classes)

    def test_phases_charged(self, setup):
        fw, fgraph, net = setup
        result = layerwise_inference(fw, fgraph, net)
        assert result.phases["training"] > 0
        assert result.total_time > 0

    def test_gpu_inference_charges_movement(self, machine):
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        net = build_graphsage(fw, fgraph, hidden=16, dropout=0.0, seed=0)
        result = layerwise_inference(fw, fgraph, net, device="gpu")
        assert result.phases["data_movement"] > 0
        assert machine.pcie.counters.bytes_h2d > 0
        assert machine.pcie.counters.bytes_d2h > 0  # outputs stream back

    def test_gpu_faster_than_cpu_compute(self, setup):
        fw, fgraph, net = setup
        cpu = layerwise_inference(fw, fgraph, net, device="cpu")
        gpu = layerwise_inference(fw, fgraph, net, device="gpu")
        assert gpu.phases["training"] < cpu.phases["training"]

    def test_requires_layered_model(self, setup):
        fw, fgraph, _ = setup
        from repro.tensor.module import Linear
        with pytest.raises(BenchmarkError):
            layerwise_inference(fw, fgraph, Linear(4, 2))


class TestBatchBlocks:
    def test_stack_chains_from_features_to_requested_rows(self, setup):
        _, fgraph, _ = setup
        nodes = np.array([4, 3, 9])
        blocks = batch_blocks(fgraph.graph, nodes, 2, fgraph.machine.cpu)
        assert np.array_equal(blocks[-1].src_nodes[:3], nodes)
        assert blocks[-1].num_dst == 3
        assert blocks[0].num_dst == blocks[1].num_src
        for block in blocks:  # every in-edge of every row, relabeled
            rows = block.src_nodes[:block.num_dst]
            assert np.array_equal(
                np.bincount(block.dst, minlength=block.num_dst),
                fgraph.graph.adj.degrees()[rows])

    def test_duplicate_nodes_rejected(self, setup):
        _, fgraph, _ = setup
        with pytest.raises(SamplerError, match="first duplicate: 3"):
            batch_blocks(fgraph.graph, np.array([3, 3, 4]), 2,
                         fgraph.machine.cpu)

    @pytest.mark.parametrize("bad", [-1, "num_nodes"])
    def test_id_outside_the_graph_rejected_by_name(self, setup, bad):
        """Serving gathers layer-0 rows with ``np.take(mode="clip")``,
        which would clip an out-of-range id silently, so the stack must
        refuse it first, naming the id."""
        _, fgraph, _ = setup
        bad = fgraph.num_nodes if bad == "num_nodes" else bad
        with pytest.raises(GraphFormatError,
                           match=rf"batch_blocks: nodes id {bad} outside"):
            batch_blocks(fgraph.graph, np.array([4, bad]), 2,
                         fgraph.machine.cpu)
