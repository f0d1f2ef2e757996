"""Layer-wise importance samplers: FastGCN and LADIES.

The paper's background (Section 2.1) motivates the sampler landscape with
FastGCN (Chen et al. 2018) — independent per-layer node draws from a
precomputed importance distribution, which can produce isolated nodes —
and LADIES (Zou et al. 2019) — layer-*dependent* draws restricted to the
current frontier's neighborhood, which fixes sparsity "while it introduces
additional computational cost and non-negligible overhead in the sampling
process".  Both are implemented here so the ablation bench can quantify
that trade-off against GraphSAGE's node-wise sampler.

Both samplers are vectorized: the frontier's neighbor lists are gathered
in one :func:`~repro.sampling.relabel.gather_neighborhoods` pass, kept
edges come from a single ``np.isin`` membership test, and block
relabeling goes through :func:`~repro.sampling.relabel.block_locals` —
no per-frontier-node Python loops.

Both produce :class:`~repro.sampling.base.BlockSample` mini-batches
(bipartite blocks, output-side roots), directly consumable by
:class:`~repro.models.base.BlockNet`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import SamplerError
from repro.graph.formats import INDEX_DTYPE
from repro.graph.graph import Graph
from repro.sampling.base import Block, BlockSample, SampleWork
from repro.sampling.relabel import block_locals, gather_neighborhoods


def _block_from_edges(src_global, dst_global, dst_nodes, table):
    """Assemble a Block with dst-prefix node layout from global edges."""
    src_nodes, src_local, dst_local = block_locals(
        src_global, dst_global, dst_nodes, table
    )
    return src_nodes, Block(src_nodes=src_nodes, dst_nodes=dst_nodes,
                            src=src_local, dst=dst_local)


def _frontier_edges_into(indptr, indices, frontier, keep_set):
    """Edges (src in ``keep_set``, dst in ``frontier``), one vectorized pass.

    Returns ``(src_global, dst_global, kept_per_frontier_node,
    edges_scanned)``.
    """
    neighbors, degrees, _ = gather_neighborhoods(indptr, indices, frontier)
    owners = np.repeat(frontier, degrees)
    kept = np.isin(neighbors, keep_set)
    segment = np.repeat(np.arange(frontier.size), degrees)
    kept_per_node = np.bincount(segment[kept], minlength=frontier.size)
    return neighbors[kept], owners[kept], kept_per_node, int(neighbors.size)


class FastGCNSampler:
    """FastGCN: per-layer independent draws from a global distribution.

    The importance distribution q(v) ~ deg(v)^2 is precomputed once.  For
    each layer, ``layer_size`` nodes are drawn independently of the
    frontier; edges into the frontier are kept.  Isolated frontier nodes
    (no sampled in-neighbors) are the method's known failure mode — the
    sampler exposes ``last_isolated_fraction`` so tests and benches can
    observe it.
    """

    def __init__(self, graph: Graph, layer_sizes=(400, 400),
                 batch_size: int = 512, seed: Optional[int] = None) -> None:
        if not layer_sizes:
            raise SamplerError("layer_sizes must be non-empty")
        self.graph = graph
        self.paper_layer_sizes = tuple(int(s) for s in layer_sizes)
        self.layer_sizes = tuple(
            max(2, int(round(s / graph.node_scale))) for s in layer_sizes
        )
        self.actual_batch_size = max(2, int(round(batch_size / graph.node_scale)))
        self.rng = np.random.default_rng(seed)
        # choice() needs f64 probabilities that sum to exactly 1.
        degrees = np.maximum(graph.adj.degrees(), 1).astype(np.float64)
        weights = degrees ** 2
        self._probs = weights / weights.sum()
        self._indptr = graph.adj.indptr
        self._indices = graph.adj.indices
        self.last_isolated_fraction = 0.0

    def sample(self, roots: np.ndarray) -> BlockSample:
        roots = np.asarray(roots, dtype=INDEX_DTYPE)
        if roots.size == 0:
            raise SamplerError("cannot sample an empty root batch")
        node_scale = self.graph.node_scale
        work = SampleWork()
        blocks: List[Block] = []
        frontier = roots
        isolated = 0
        total_frontier = 0
        for size in reversed(self.layer_sizes):
            size = min(size, self.graph.num_nodes)
            candidates = np.unique(
                self.rng.choice(self.graph.num_nodes, size=size, p=self._probs)
            )
            src_g, dst_g, kept_per_node, scanned = _frontier_edges_into(
                self._indptr, self._indices, frontier, candidates
            )
            work.items += scanned * node_scale  # membership tests
            isolated += int((kept_per_node == 0).sum())
            total_frontier += frontier.size
            src_nodes, block = _block_from_edges(
                src_g, dst_g, frontier, self.graph.adj.id_table)
            block.edge_scale = node_scale
            block.node_scale = node_scale
            blocks.append(block)
            frontier = src_nodes
            work.items += size * node_scale  # the independent draws
        blocks.reverse()
        self.last_isolated_fraction = isolated / max(1, total_frontier)
        input_nodes = blocks[0].src_nodes
        work.fetch_bytes = 4.0 * input_nodes.size * node_scale * self.graph.num_features
        return BlockSample(blocks=blocks, input_nodes=input_nodes,
                           output_nodes=roots, work=work)

    def num_batches(self, train_nodes: int) -> int:
        return max(1, int(np.ceil(train_nodes / self.actual_batch_size)))

    def epoch_batches(self, shuffle: bool = True):
        train = self.graph.train_nodes()
        if shuffle:
            train = self.rng.permutation(train)
        for start in range(0, train.size, self.actual_batch_size):
            roots = train[start:start + self.actual_batch_size]
            if roots.size:
                yield self.sample(roots)


class LadiesSampler:
    """LADIES: layer-dependent importance sampling.

    Like FastGCN, a fixed number of nodes is drawn per layer — but the
    distribution is recomputed *per batch, per layer* over the current
    frontier's in-neighborhood (q(v) ~ sum of squared normalized adjacency
    entries into the frontier).  That removes FastGCN's isolated nodes but
    costs an extra pass over the frontier's edges every layer — the
    "additional computational cost and non-negligible overhead" the paper
    cites, which the ablation bench quantifies.
    """

    def __init__(self, graph: Graph, layer_sizes=(400, 400),
                 batch_size: int = 512, seed: Optional[int] = None) -> None:
        if not layer_sizes:
            raise SamplerError("layer_sizes must be non-empty")
        self.graph = graph
        self.paper_layer_sizes = tuple(int(s) for s in layer_sizes)
        self.layer_sizes = tuple(
            max(2, int(round(s / graph.node_scale))) for s in layer_sizes
        )
        self.actual_batch_size = max(2, int(round(batch_size / graph.node_scale)))
        self.rng = np.random.default_rng(seed)
        self._indptr = graph.adj.indptr
        self._indices = graph.adj.indices

    def _frontier_distribution(self, frontier: np.ndarray):
        """Importance over the union of the frontier's in-neighborhoods."""
        all_neigh, _, _ = gather_neighborhoods(
            self._indptr, self._indices, frontier
        )
        if all_neigh.size == 0:
            return frontier, np.ones(frontier.size) / frontier.size, 0
        candidates, counts = np.unique(all_neigh, return_counts=True)
        # choice() needs f64 probabilities that sum to exactly 1.
        probs = counts.astype(np.float64)
        probs /= probs.sum()
        return candidates, probs, all_neigh.size

    def sample(self, roots: np.ndarray) -> BlockSample:
        roots = np.asarray(roots, dtype=INDEX_DTYPE)
        if roots.size == 0:
            raise SamplerError("cannot sample an empty root batch")
        node_scale = self.graph.node_scale
        work = SampleWork()
        blocks: List[Block] = []
        frontier = roots
        for size in reversed(self.layer_sizes):
            candidates, probs, edges_scanned = self._frontier_distribution(frontier)
            # The per-layer distribution pass is LADIES' extra overhead:
            # one full scan of the frontier's edges plus the draw itself.
            work.items += 2.0 * edges_scanned * node_scale + candidates.size * node_scale
            draw = min(size, candidates.size)
            chosen = np.unique(
                self.rng.choice(candidates, size=draw, p=probs, replace=True)
            )
            src_g, dst_g, _, scanned = _frontier_edges_into(
                self._indptr, self._indices, frontier, chosen
            )
            work.items += scanned * node_scale
            src_nodes, block = _block_from_edges(
                src_g, dst_g, frontier, self.graph.adj.id_table)
            block.edge_scale = node_scale
            block.node_scale = node_scale
            blocks.append(block)
            frontier = src_nodes
        blocks.reverse()
        input_nodes = blocks[0].src_nodes
        work.fetch_bytes = 4.0 * input_nodes.size * node_scale * self.graph.num_features
        return BlockSample(blocks=blocks, input_nodes=input_nodes,
                           output_nodes=roots, work=work)

    def num_batches(self, train_nodes: int) -> int:
        return max(1, int(np.ceil(train_nodes / self.actual_batch_size)))

    def epoch_batches(self, shuffle: bool = True):
        train = self.graph.train_nodes()
        if shuffle:
            train = self.rng.permutation(train)
        for start in range(0, train.size, self.actual_batch_size):
            roots = train[start:start + self.actual_batch_size]
            if roots.size:
                yield self.sample(roots)
