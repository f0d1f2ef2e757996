"""Tests for the Graph container and logical-scale bookkeeping."""

from dataclasses import replace

import pytest

from repro.errors import GraphFormatError
from repro.graph.graph import Graph, GraphStats, Split


class TestSplit:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Split(0.5, 0.1, 0.1)
        Split(0.66, 0.12, 0.22)  # ok


class TestGraphStats:
    def test_derived_quantities(self):
        stats = GraphStats("g", "d", 1000, 8000, 32, 4, False, Split(0.6, 0.2, 0.2))
        assert stats.avg_degree == pytest.approx(8.0)
        assert stats.feature_nbytes() == 4 * 1000 * 32
        assert stats.structure_nbytes() == 8 * 1001 + 8 * 8000
        assert stats.label_nbytes() == 8 * 1000
        # the paper-scale read charged at load: all three parts
        assert stats.stored_nbytes() == (stats.feature_nbytes()
                                         + stats.structure_nbytes()
                                         + stats.label_nbytes())

    def test_multilabel_label_bytes(self):
        stats = GraphStats("g", "d", 100, 400, 8, 10, True, Split(0.6, 0.2, 0.2))
        assert stats.label_nbytes() == 4 * 10 * 100


class TestGraph:
    def test_validation(self, tiny_graph):
        with pytest.raises(GraphFormatError):
            Graph(
                tiny_graph.adj,
                tiny_graph.features[:-1],  # wrong row count
                tiny_graph.labels,
                tiny_graph.train_mask,
                tiny_graph.val_mask,
                tiny_graph.test_mask,
                tiny_graph.stats,
            )

    @pytest.mark.parametrize("part, match", [
        ("labels", "label rows"),
        ("val_mask", "masks must be 1-D"),
        ("multilabel", "multilabel graphs need 2-D labels"),
    ])
    def test_each_mismatch_named(self, tiny_graph, part, match):
        g = tiny_graph
        args = dict(adj=g.adj, features=g.features, labels=g.labels,
                    train_mask=g.train_mask, val_mask=g.val_mask,
                    test_mask=g.test_mask, stats=g.stats)
        if part == "labels":
            args["labels"] = g.labels[:-1]
        elif part == "val_mask":
            args["val_mask"] = g.val_mask.reshape(-1, 1)
        else:
            args["stats"] = replace(g.stats, multilabel=True)
        with pytest.raises(GraphFormatError, match=match):
            Graph(**args)

    def test_scales_reflect_logical_sizes(self, tiny_graph):
        assert tiny_graph.node_scale == pytest.approx(
            tiny_graph.stats.logical_num_nodes / tiny_graph.num_nodes
        )
        assert tiny_graph.node_scale > 1.0
        assert tiny_graph.edge_scale > 1.0

    def test_train_nodes_are_the_train_mask(self, tiny_graph):
        train = tiny_graph.train_nodes()
        assert train.size == int(tiny_graph.train_mask.sum())
        assert tiny_graph.train_mask[train].all()
