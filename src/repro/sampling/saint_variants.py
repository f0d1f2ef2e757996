"""GraphSAINT's node- and edge-sampling variants.

The paper benchmarks only GraphSAINT's random-walk sampler because the
original work showed node and edge sampling inferior in accuracy; both
variants are implemented here for completeness and for the ablation bench
(`benchmarks/test_ablation_saint_variants.py`) that compares their cost.

* Node sampler: sample nodes with probability proportional to squared
  degree (the GraphSAINT paper's importance distribution), induce.
* Edge sampler: sample edges with probability ~ 1/deg(u) + 1/deg(v),
  take their endpoints, induce.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SamplerError
from repro.graph.formats import INDEX_DTYPE, induced_subgraph
from repro.graph.graph import Graph
from repro.sampling.base import SampleWork, SubgraphSample


class SaintNodeSampler:
    """GraphSAINT node sampler: degree-weighted node draws + induction."""

    def __init__(self, graph: Graph, budget: int = 6000,
                 seed: Optional[int] = None) -> None:
        if budget < 1:
            raise SamplerError("budget must be >= 1")
        self.graph = graph
        self.paper_budget = budget
        self.actual_budget = max(2, int(round(budget / graph.node_scale)))
        self.rng = np.random.default_rng(seed)
        # choice() needs f64 probabilities that sum to exactly 1.
        degrees = np.maximum(graph.adj.degrees(), 1).astype(np.float64)
        weights = degrees ** 2
        self._probs = weights / weights.sum()

    def sample(self) -> SubgraphSample:
        size = min(self.actual_budget, self.graph.num_nodes)
        nodes = np.unique(
            self.rng.choice(self.graph.num_nodes, size=size, p=self._probs)
        ).astype(INDEX_DTYPE)
        # order="dst" emits edges in SparseAdj's canonical order so block
        # assembly can use the argsort-free from_sorted_block constructor.
        sub_coo, _ = induced_subgraph(self.graph.adj, nodes, order="dst")
        node_scale = self.graph.node_scale
        edge_scale = self.graph.edge_scale
        work = SampleWork(
            items=size * node_scale + 0.5 * sub_coo.num_edges * edge_scale,
            fetch_bytes=4.0 * nodes.size * node_scale * self.graph.num_features,
        )
        return SubgraphSample(nodes=nodes, src=sub_coo.src, dst=sub_coo.dst,
                              node_scale=node_scale, edge_scale=edge_scale,
                              work=work)

    def num_batches(self) -> int:
        expected = min(self.graph.num_nodes, self.actual_budget)
        return max(1, int(np.ceil(self.graph.num_nodes / expected)))

    def epoch_batches(self):
        for _ in range(self.num_batches()):
            yield self.sample()


class SaintEdgeSampler:
    """GraphSAINT edge sampler: inverse-degree edge draws + induction."""

    def __init__(self, graph: Graph, budget: int = 4000,
                 seed: Optional[int] = None) -> None:
        if budget < 1:
            raise SamplerError("budget must be >= 1")
        self.graph = graph
        self.paper_budget = budget
        self.actual_budget = max(2, int(round(budget / graph.edge_scale)))
        self.rng = np.random.default_rng(seed)
        coo = graph.adj.to_coo()
        self._src, self._dst = coo.src, coo.dst
        # choice() needs f64 probabilities that sum to exactly 1.
        degrees = np.maximum(
            np.bincount(self._src, minlength=graph.num_nodes), 1
        ).astype(np.float64)
        weights = 1.0 / degrees[self._src] + 1.0 / degrees[self._dst]
        self._probs = weights / weights.sum()

    def sample(self) -> SubgraphSample:
        size = min(max(2, self.actual_budget), self._src.size)
        picked = self.rng.choice(self._src.size, size=size, p=self._probs)
        nodes = np.unique(
            np.concatenate([self._src[picked], self._dst[picked]])
        ).astype(INDEX_DTYPE)
        sub_coo, _ = induced_subgraph(self.graph.adj, nodes, order="dst")
        node_scale = self.graph.node_scale
        edge_scale = self.graph.edge_scale
        work = SampleWork(
            items=size * edge_scale + 0.5 * sub_coo.num_edges * edge_scale,
            fetch_bytes=4.0 * nodes.size * node_scale * self.graph.num_features,
        )
        return SubgraphSample(nodes=nodes, src=sub_coo.src, dst=sub_coo.dst,
                              node_scale=node_scale, edge_scale=edge_scale,
                              work=work)

    def num_batches(self) -> int:
        probe = self.sample()
        expected = max(1, probe.num_nodes)
        return max(1, int(np.ceil(self.graph.num_nodes / expected)))

    def epoch_batches(self):
        for _ in range(self.num_batches()):
            yield self.sample()
