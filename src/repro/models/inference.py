"""Layer-wise mini-batch inference (the paper's explicitly-excluded side).

Section 4.1 notes "we do not consider the inference of each model in this
paper"; this extension fills the gap using the standard technique from the
DGL/PyG examples: instead of sampling (which biases predictions), layer-
wise inference computes each GNN layer for *all* nodes before moving to
the next layer, processing nodes in batches so the layer's working set
fits device memory.

Cost structure differs from training: no neighbor explosion (each layer
touches every edge exactly once), but features stream through the device
per layer — so data movement, not sampling, dominates GPU inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datapipe.config import parse_pipeline
from repro.datapipe.pipeline import Stage, run_epoch
from repro.datapipe.staging import StagingPool
from repro.errors import BenchmarkError
from repro.frameworks.base import Framework, FrameworkGraph
from repro.graph.formats import INDEX_DTYPE, gather_neighborhoods
from repro.kernels.adj import SparseAdj
from repro.sampling.relabel import block_locals
from repro.kernels.transfer import to_device
from repro.telemetry.runtime import tracer_for
from repro.telemetry.spans import SpanTracer
from repro.tensor import functional as F
from repro.tensor.module import Module
from repro.tensor.tensor import Tensor, no_grad


@dataclass
class InferenceResult:
    """Logits plus the phase breakdown of the inference pass."""

    logits: np.ndarray
    phases: dict

    @property
    def total_time(self) -> float:
        return sum(self.phases.values())


def layerwise_inference(
    framework: Framework,
    fgraph: FrameworkGraph,
    model: Module,
    device: str = "cpu",
    batch_nodes: int = 65536,
    tracer: Optional[SpanTracer] = None,
    pipeline: str = "off",
) -> InferenceResult:
    """Full-graph inference one layer at a time, in node batches.

    ``batch_nodes`` is the *paper-scale* number of output rows per chunk;
    it is shrunk by the dataset's node scale like every other batch knob.
    The chunks of each layer stream through the datapipe lane scheduler
    with ``pipeline`` (``off`` = one, ``depth-N`` = N) chunks in flight,
    so deeper queues overlap feature staging and PCIe copies with the
    previous chunk's compute; the layer boundary stays a barrier (layer
    ``i+1`` reads every chunk of layer ``i``).  Logits are bit-identical
    at every depth.
    """
    if not hasattr(model, "_layers"):
        raise BenchmarkError("layerwise_inference needs a layered model")
    machine = fgraph.machine
    target = machine.device(device)
    tracer = tracer or tracer_for(machine.clock)
    graph = fgraph.graph
    actual_chunk = max(1, int(round(batch_nodes / graph.node_scale)))
    depth = parse_pipeline(pipeline).depth

    model.eval()
    layers = list(model._layers)
    x_host = fgraph.features.data
    with no_grad():
        for i, layer in enumerate(layers):
            x_host = _layer_chunks(
                framework, fgraph, layer, x_host, target,
                actual_chunk, depth, tracer,
                apply_relu=i < len(layers) - 1,
            )
    return InferenceResult(logits=x_host, phases=tracer.phase_rollup())


def _layer_chunks(framework, fgraph, layer, x_host, target,
                  actual_chunk, depth, tracer, apply_relu):
    """One GNN layer's chunks streamed through the datapipe scheduler."""
    machine = fgraph.machine
    graph = fgraph.graph
    on_gpu = target.kind == "gpu"
    pool = StagingPool(machine, depth, label="inference")

    def fetch(index, rows):
        # Block: all in-edges of this chunk's rows.
        block = _chunk_block(graph, rows, target)
        with framework.activate():
            x_in = Tensor(x_host[block.src_nodes],
                          device=machine.cpu, work_scale=graph.node_scale)
        pool.stage_host(index, x_in.logical_nbytes)
        return block, x_in

    def h2d(index, payload):
        block, x_in = payload
        pool.stage_gpu(index, x_in.logical_nbytes)
        with framework.activate():
            x_in = to_device(x_in, target, machine.pcie,
                             tag="inference-features")
        return block, x_in

    def compute(index, payload):
        block, x_in = payload
        with framework.activate():
            out = layer(block, x_in)
            if apply_relu:
                out = F.relu(out)
        return out

    def d2h(index, out):
        machine.pcie.d2h(out.logical_nbytes, tag="inference-outputs")
        return out.data

    stages = [Stage("fetch", "data_movement", fn=fetch, lanes=("fetch",))]
    if on_gpu:
        stages.append(Stage("h2d", "data_movement", fn=h2d, lanes=("h2d",)))
    stages.append(Stage("compute", "training", fn=compute, lanes=("train",)))
    if on_gpu:
        stages.append(Stage("d2h", "data_movement", fn=d2h, lanes=("d2h",)))
    else:
        stages.append(Stage("d2h", "data_movement",
                            fn=lambda i, out: out.data, lanes=("d2h",)))

    source = (np.arange(start, min(start + actual_chunk, graph.num_nodes))
              for start in range(0, graph.num_nodes, actual_chunk))
    try:
        report = run_epoch(machine, stages, source, depth,
                           label="inference")
    finally:
        pool.close()
    report.credit_phases(tracer)
    return np.concatenate(report.outputs, axis=0)


def _chunk_block(graph, rows: np.ndarray, device) -> SparseAdj:
    """Bipartite block: every in-edge of ``rows`` (dst-prefix layout).

    One vectorized CSR gather + the shared relabel machinery — no
    per-row slicing or dict probes — and the per-row grouping means the
    edge list is already dst-sorted, so adjacency construction skips its
    argsort via ``from_sorted_block``.
    """
    src_global, degrees, _ = gather_neighborhoods(
        graph.adj.indptr, graph.adj.indices, rows
    )
    dst_local = np.repeat(np.arange(rows.size, dtype=INDEX_DTYPE), degrees)
    src_nodes, src_local, _ = block_locals(
        src_global, np.empty(0, dtype=INDEX_DTYPE), rows, graph.adj.id_table
    )
    adj = SparseAdj.from_sorted_block(
        src_local, dst_local, num_src=src_nodes.size,
        num_dst=rows.size, device=device,
        node_scale=graph.node_scale, edge_scale=graph.edge_scale)
    # Global id of every source row, dst-prefix first: feature lookup
    # gathers by it, and src_nodes[:num_dst] keys a RowMemo.
    adj.src_nodes = src_nodes
    return adj


def batch_blocks(graph, nodes: np.ndarray, num_layers: int, device) -> list:
    """The L-hop block stack for exact (sampling-free) batch inference.

    Walks ``num_layers`` hops of in-edges outward from ``nodes`` with
    :func:`_chunk_block`, innermost layer first — ``blocks[0]`` consumes
    raw features of ``blocks[0].src_nodes`` and ``blocks[-1]`` emits one
    output row per requested node.  Layer ``l``'s output rows are exactly
    layer ``l+1``'s source rows, so the stack feeds a layered model
    directly.  The online serving engine scores micro-batches this way:
    no neighbor sampling, hence no prediction bias per request.  An id
    outside the graph raises :class:`~repro.errors.GraphFormatError`
    naming it, before any adjacency or feature row is read.
    """
    nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
    graph.adj.id_table.require_ids("batch_blocks", nodes=nodes)
    blocks = []
    rows = nodes
    for _ in range(num_layers):
        block = _chunk_block(graph, rows, device)
        blocks.append(block)
        rows = block.src_nodes
    blocks.reverse()
    return blocks
