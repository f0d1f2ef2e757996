"""Structural checks over graphs: every generated dataset is well-formed,
and each check catches the breakage it names."""

from typing import List

import numpy as np

from repro.graph.graph import Graph


def validate_graph(graph: Graph, require_symmetric: bool = False) -> List[str]:
    """Run all structural checks; returns a list of problem descriptions.

    An empty list means the graph is well-formed.  ``require_symmetric``
    additionally checks that every edge has its reverse (our synthetic
    datasets are undirected).
    """
    problems: List[str] = []
    adj = graph.adj

    if adj.indptr[0] != 0 or adj.indptr[-1] != adj.indices.size:
        problems.append("CSR indptr endpoints inconsistent")
    if np.any(np.diff(adj.indptr) < 0):
        problems.append("CSR indptr not monotone")
    if adj.indices.size and (adj.indices.min() < 0
                             or adj.indices.max() >= graph.num_nodes):
        problems.append("neighbor index out of range")

    if graph.features.shape[0] != graph.num_nodes:
        problems.append("feature rows != num_nodes")
    if not np.isfinite(graph.features).all():
        problems.append("non-finite feature values")

    if graph.stats.multilabel:
        if graph.labels.ndim != 2:
            problems.append("multilabel graph with 1-D labels")
        elif not set(np.unique(graph.labels)) <= {0.0, 1.0}:
            problems.append("multilabel labels not binary")
    else:
        if graph.labels.ndim != 1:
            problems.append("single-label graph with 2-D labels")
        elif graph.labels.size and (graph.labels.min() < 0
                                    or graph.labels.max() >= graph.stats.num_classes):
            problems.append("label value outside class range")

    overlap = (graph.train_mask & graph.val_mask) | \
              (graph.train_mask & graph.test_mask) | \
              (graph.val_mask & graph.test_mask)
    if overlap.any():
        problems.append("split masks overlap")
    if not (graph.train_mask | graph.val_mask | graph.test_mask).all():
        problems.append("split masks do not cover all nodes")

    if graph.stats.logical_num_nodes < graph.num_nodes:
        problems.append("logical node count below actual (scale < 1)")
    if graph.stats.logical_num_edges < graph.num_edges:
        problems.append("logical edge count below actual (scale < 1)")

    if require_symmetric:
        coo = adj.to_coo()
        pairs = set(zip(coo.src.tolist(), coo.dst.tolist()))
        if any((d, s) not in pairs for s, d in pairs):
            problems.append("edge set is not symmetric")

    return problems


class TestValidGraphs:
    def test_tiny_graph_passes(self, tiny_graph):
        assert validate_graph(tiny_graph) == []

    def test_datasets_pass_with_symmetry(self):
        from repro.datasets import get_dataset
        for name in ("ppi", "flickr"):
            graph = get_dataset(name, scale=0.3)
            assert validate_graph(graph, require_symmetric=True) == []


class TestBrokenGraphs:
    def test_nonfinite_features_detected(self, tiny_graph):
        # The cached graph's store is read-only: plant the NaN in a copy.
        features = tiny_graph.features.copy()
        features[0, 0] = np.nan
        broken = Graph(tiny_graph.adj, features, tiny_graph.labels,
                       tiny_graph.train_mask, tiny_graph.val_mask,
                       tiny_graph.test_mask, tiny_graph.stats)
        assert "non-finite feature values" in validate_graph(broken)

    def test_label_out_of_range_detected(self, tiny_graph):
        original = tiny_graph.labels[0]
        tiny_graph.labels[0] = tiny_graph.stats.num_classes + 3
        try:
            assert "label value outside class range" in validate_graph(tiny_graph)
        finally:
            tiny_graph.labels[0] = original

    def test_overlapping_masks_detected(self, tiny_graph):
        idx = int(np.nonzero(tiny_graph.train_mask)[0][0])
        tiny_graph.val_mask[idx] = True
        try:
            assert "split masks overlap" in validate_graph(tiny_graph)
        finally:
            tiny_graph.val_mask[idx] = False

    def test_uncovered_nodes_detected(self, tiny_graph):
        idx = int(np.nonzero(tiny_graph.train_mask)[0][0])
        tiny_graph.train_mask[idx] = False
        try:
            assert "split masks do not cover all nodes" in validate_graph(tiny_graph)
        finally:
            tiny_graph.train_mask[idx] = True

    def test_asymmetry_detected(self, tiny_graph):
        from repro.graph.formats import AdjacencyCOO
        from repro.graph.graph import Graph
        directed = Graph(
            AdjacencyCOO(tiny_graph.num_nodes,
                         np.array([0]), np.array([1])).to_csr(),
            tiny_graph.features,
            tiny_graph.labels,
            tiny_graph.train_mask,
            tiny_graph.val_mask,
            tiny_graph.test_mask,
            tiny_graph.stats,
        )
        assert "edge set is not symmetric" in validate_graph(
            directed, require_symmetric=True)
