"""ClusterGCN's sampler: one-time partitioning + per-batch cluster picks.

Paper configuration: METIS partitions the graph into 2000 clusters; each
mini-batch randomly combines 50 of them (40 batches per epoch).  The
scaled-down run keeps the 50/2000 ratio, so batches-per-epoch and the
per-batch fraction of the graph match the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SamplerError
from repro.graph.formats import INDEX_DTYPE, induced_subgraph
from repro.graph.graph import Graph
from repro.graph.partition import PartitionResult, partition_graph
from repro.sampling.base import SampleWork, SubgraphSample


class ClusterSampler:
    """Partition once, then yield random cluster-union subgraphs.

    Batch assembly is fully vectorized: cluster membership is one gather
    of the assignment array through a boolean table over part ids (no
    sort, unlike ``np.isin``), and the subgraph induction goes
    through :func:`~repro.graph.formats.induced_subgraph`, which gathers
    only the selected rows' CSR slices (O(incident edges), not O(all
    edges)).  ``seed=None`` leaves the RNG nondeterministic; the framework
    wrappers default to ``seed=0``.
    """

    #: Fraction of edges METIS keeps inside clusters at paper scale.  The
    #: scaled-down partition has tiny clusters that retain almost nothing,
    #: so batch work/training cost uses this analytic retention instead of
    #: the (unrepresentative) actual induced-edge count.
    EDGE_RETENTION = 0.6

    def __init__(
        self,
        graph: Graph,
        num_parts: int = 2000,
        parts_per_batch: int = 50,
        seed: Optional[int] = None,
    ) -> None:
        if parts_per_batch < 1 or num_parts < parts_per_batch:
            raise SamplerError("need 1 <= parts_per_batch <= num_parts")
        self.graph = graph
        self.paper_num_parts = num_parts
        self.paper_parts_per_batch = parts_per_batch
        # Keep the paper's batches-per-epoch (num_parts / parts_per_batch)
        # while ensuring clusters have a sane actual size (>= ~4 nodes):
        # pick the actual part count as a multiple of the batch count so an
        # epoch divides evenly into exactly the paper's number of batches.
        batches = max(1, num_parts // parts_per_batch)
        size_cap = max(1, graph.num_nodes // 4)
        per_batch = max(1, min(parts_per_batch, size_cap // batches))
        self.actual_num_parts = int(min(num_parts, batches * per_batch))
        self.actual_parts_per_batch = per_batch
        self.rng = np.random.default_rng(seed)
        self._partition: Optional[PartitionResult] = None
        self.partition_work_items = float(graph.stats.logical_num_edges)

    @property
    def partition(self) -> PartitionResult:
        """The one-time partitioning (computed lazily).

        The partition is a pure function of (graph, part count, drawn
        seed), so it is memoised in ``graph.derived``: a second sampler
        that draws the same seed over the same cached dataset reuses it,
        read-only.
        """
        if self._partition is None:
            seed = int(self.rng.integers(2**31))
            key = ("partition", self.actual_num_parts, seed)
            memo = self.graph.derived
            if key not in memo:
                result = partition_graph(
                    self.graph.adj, self.actual_num_parts, seed=seed
                )
                result.assignments.setflags(write=False)
                memo[key] = result
            self._partition = memo[key]
        return self._partition

    def num_batches(self) -> int:
        return max(1, self.actual_num_parts // self.actual_parts_per_batch)

    def sample(self, part_ids: Optional[np.ndarray] = None) -> SubgraphSample:
        """Union the given clusters (random pick if None) into a batch."""
        partition = self.partition
        if part_ids is None:
            part_ids = self.rng.choice(
                self.actual_num_parts, size=self.actual_parts_per_batch, replace=False
            )
        part_ids = np.asarray(part_ids, dtype=INDEX_DTYPE)
        if part_ids.size and (part_ids.min() < 0
                              or part_ids.max() >= self.actual_num_parts):
            raise SamplerError(
                f"part ids must lie in [0, {self.actual_num_parts})"
            )
        selected = np.zeros(self.actual_num_parts, dtype=bool)
        selected[part_ids] = True
        nodes = np.nonzero(selected[partition.assignments])[0].astype(INDEX_DTYPE)
        if nodes.size == 0:
            raise SamplerError("selected clusters are empty")
        # order="dst" emits dst-sorted edges (SparseAdj canonical order)
        # so assembly can use the argsort-free from_sorted_block path.
        sub_coo, _ = induced_subgraph(self.graph.adj, nodes, order="dst")

        node_scale = self.graph.node_scale
        # Paper-scale batch edges: the batch covers q/P of the clusters,
        # whose intra-cluster edges METIS retains at ~EDGE_RETENTION.
        fraction = part_ids.size / self.actual_num_parts
        logical_edges = max(
            float(sub_coo.num_edges),
            self.EDGE_RETENTION * self.graph.stats.logical_num_edges * fraction,
        )
        edge_scale = logical_edges / max(1, sub_coo.num_edges)
        work = SampleWork(
            # Cluster aggregation touches each member node and scans its
            # incident (logical) edges to build the induced subgraph.
            items=nodes.size * node_scale + logical_edges,
            fetch_bytes=4.0 * nodes.size * node_scale * self.graph.num_features,
        )
        return SubgraphSample(
            nodes=nodes,
            src=sub_coo.src,
            dst=sub_coo.dst,
            node_scale=node_scale,
            edge_scale=edge_scale,
            work=work,
        )

    def epoch_batches(self):
        """Yield one epoch: every cluster appears in exactly one batch."""
        order = self.rng.permutation(self.actual_num_parts)
        q = self.actual_parts_per_batch
        for start in range(0, self.num_batches() * q, q):
            part_ids = order[start:start + q]
            if part_ids.size:
                yield self.sample(part_ids)
