"""Dataset specification and the synthetic builder pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.graph.formats import AdjacencyCSR
from repro.graph.generators import correlated_features, dcsbm_graph, split_masks
from repro.graph.graph import Graph, GraphStats, Split


@dataclass(frozen=True)
class DatasetSpec:
    """Everything needed to synthesize one benchmark dataset.

    ``logical_*`` fields come straight from Table 1 of the paper.
    ``actual_*`` fields choose the scaled-down size the generator realizes.
    ``in_dgl`` / ``in_pyg`` record whether the real dataset ships inside
    each framework's dataset module — the paper's Observation 1 attributes
    part of the loader gap to PyG bundling five of the six datasets vs
    DGL's three.
    """

    name: str
    description: str
    logical_num_nodes: int
    logical_num_edges: int
    num_features: int
    num_classes: int
    multilabel: bool
    split: Split
    actual_num_nodes: int
    actual_num_edges: int
    num_communities: int = 40
    intra_prob: float = 0.8
    degree_exponent: float = 2.1
    in_dgl: bool = False
    in_pyg: bool = False
    seed: int = 0

    def stats(self) -> GraphStats:
        return GraphStats(
            name=self.name,
            description=self.description,
            logical_num_nodes=self.logical_num_nodes,
            logical_num_edges=self.logical_num_edges,
            num_features=self.num_features,
            num_classes=self.num_classes,
            multilabel=self.multilabel,
            split=self.split,
        )


_CACHE: Dict[Tuple[str, float], Graph] = {}


def build_dataset(spec: DatasetSpec, scale: float = 1.0) -> Graph:
    """Synthesize (or fetch from cache) the graph for ``spec``.

    ``scale`` multiplies the *actual* generated size (1.0 = the spec's
    default reduced size; tests use smaller scales).  Logical stats are
    unaffected — they always describe the paper-scale dataset.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise DatasetError(f"scale must be positive and finite, got {scale}")
    key = (spec.name, scale)
    if key in _CACHE:
        return _CACHE[key]

    n_nodes = max(32, int(round(spec.actual_num_nodes * scale)))
    n_edges = max(64, int(round(spec.actual_num_edges * scale)))
    coo, communities = dcsbm_graph(
        num_nodes=n_nodes,
        num_edges=n_edges,
        num_communities=min(spec.num_communities, max(2, n_nodes // 16)),
        intra_prob=spec.intra_prob,
        exponent=spec.degree_exponent,
        seed=spec.seed,
    )
    features, labels = correlated_features(
        communities,
        num_features=spec.num_features,
        num_classes=spec.num_classes,
        multilabel=spec.multilabel,
        seed=spec.seed + 1,
    )
    train_mask, val_mask, test_mask = split_masks(
        n_nodes, spec.split.train, spec.split.val, spec.split.test, seed=spec.seed + 2
    )
    graph = Graph(
        coo.to_csr(),
        features,
        labels,
        train_mask,
        val_mask,
        test_mask,
        spec.stats(),
    )
    _CACHE[key] = graph
    return graph


def clear_cache() -> None:
    """Drop all cached graphs (test isolation)."""
    _CACHE.clear()
