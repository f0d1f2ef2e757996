"""The Graph container shared by both framework implementations.

A :class:`Graph` holds the *actual* (possibly scaled-down) arrays plus a
:class:`GraphStats` record with the *logical* (paper-scale) statistics.
Cost and memory models consume logical quantities via the ``node_scale`` /
``edge_scale`` properties, so a 1/64-scale Reddit still behaves like a
115 M-edge graph to the simulated machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.formats import AdjacencyCSR, INDEX_DTYPE


@dataclass(frozen=True)
class Split:
    """Train/val/test node fractions (the paper's fixed partitions)."""

    train: float
    val: float
    test: float

    def __post_init__(self) -> None:
        total = self.train + self.val + self.test
        if not (0.99 <= total <= 1.01):
            raise ValueError(f"split fractions must sum to ~1, got {total}")


@dataclass(frozen=True)
class GraphStats:
    """Logical (paper-scale) statistics of a dataset graph."""

    name: str
    description: str
    logical_num_nodes: int
    logical_num_edges: int
    num_features: int
    num_classes: int
    multilabel: bool
    split: Split

    @property
    def avg_degree(self) -> float:
        if self.logical_num_nodes == 0:
            return 0.0
        return self.logical_num_edges / self.logical_num_nodes

    def feature_nbytes(self) -> int:
        """Logical bytes of the node-feature matrix (float32)."""
        return 4 * self.logical_num_nodes * self.num_features

    def structure_nbytes(self) -> int:
        """Logical bytes of a CSR adjacency (int64 indptr + indices)."""
        return 8 * (self.logical_num_nodes + 1) + 8 * self.logical_num_edges

    def label_nbytes(self) -> int:
        per_node = 4 * self.num_classes if self.multilabel else 8
        return per_node * self.logical_num_nodes

    def stored_nbytes(self) -> int:
        """Logical on-disk footprint charged when loading this dataset."""
        return self.feature_nbytes() + self.structure_nbytes() + self.label_nbytes()


class Graph:
    """An attributed graph with masks and logical-scale bookkeeping."""

    def __init__(
        self,
        adj: AdjacencyCSR,
        features: np.ndarray,
        labels: np.ndarray,
        train_mask: np.ndarray,
        val_mask: np.ndarray,
        test_mask: np.ndarray,
        stats: GraphStats,
    ) -> None:
        if features.shape[0] != adj.num_nodes:
            raise GraphFormatError("feature rows must match num_nodes")
        if labels.shape[0] != adj.num_nodes:
            raise GraphFormatError("label rows must match num_nodes")
        for mask in (train_mask, val_mask, test_mask):
            if mask.shape != (adj.num_nodes,):
                raise GraphFormatError("masks must be 1-D over nodes")
        if stats.multilabel and labels.ndim != 2:
            raise GraphFormatError("multilabel graphs need 2-D labels")
        self.adj = adj
        self.features = np.ascontiguousarray(features, dtype=np.float32)
        self.labels = labels
        self.train_mask = train_mask.astype(bool)
        self.val_mask = val_mask.astype(bool)
        self.test_mask = test_mask.astype(bool)
        self.stats = stats
        # Structure that is a pure function of this graph (the canonical
        # edge order of its full adjacency, a seeded partition), memoised
        # by whoever derives it so it is derived at most once and lives
        # exactly as long as the dataset cache keeps the graph —
        # ``datasets.clear_cache()`` drops both together.  Every reader
        # gets the same object: store read-only arrays.
        self.derived: Dict[Hashable, Any] = {}

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adj.num_nodes

    @property
    def num_edges(self) -> int:
        return self.adj.num_edges

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def node_scale(self) -> float:
        """Logical nodes per actual node (>= 1 for scaled-down datasets)."""
        return self.stats.logical_num_nodes / max(1, self.num_nodes)

    @property
    def edge_scale(self) -> float:
        """Logical edges per actual edge (>= 1 for scaled-down datasets)."""
        return self.stats.logical_num_edges / max(1, self.num_edges)

    def train_nodes(self) -> np.ndarray:
        return np.nonzero(self.train_mask)[0].astype(INDEX_DTYPE)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Graph({self.stats.name}: {self.num_nodes} nodes / {self.num_edges} edges "
            f"actual, {self.stats.logical_num_nodes} / {self.stats.logical_num_edges} logical)"
        )
