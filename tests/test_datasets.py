"""Tests for the six dataset builders and the registry (Table 1)."""

import numpy as np
import pytest

from repro.datasets import (
    DATASET_NAMES,
    build_dataset,
    clear_cache,
    dataset_spec,
    get_dataset,
    list_datasets,
)
from repro.errors import DatasetError

# Table 1 of the paper, verbatim.
TABLE_1 = {
    "ppi": (14_755, 225_270, 50, 121, (0.66, 0.12, 0.22)),
    "flickr": (89_250, 899_756, 500, 7, (0.50, 0.25, 0.25)),
    "ogbn-arxiv": (169_343, 1_166_243, 128, 40, (0.54, 0.29, 0.17)),
    "reddit": (232_965, 114_615_892, 602, 41, (0.66, 0.10, 0.24)),
    "yelp": (716_847, 13_954_819, 300, 100, (0.75, 0.10, 0.15)),
    "ogbn-products": (2_449_029, 61_859_140, 100, 47, (0.08, 0.02, 0.90)),
}


class TestRegistry:
    def test_all_six_datasets_present(self):
        assert set(DATASET_NAMES) == set(TABLE_1)

    def test_order_is_table_1_order(self):
        assert list(DATASET_NAMES) == list(TABLE_1)

    def test_lookup_case_insensitive(self):
        assert dataset_spec("PPI").name == "ppi"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DatasetError):
            dataset_spec("cora")

    def test_list_datasets_returns_specs(self):
        specs = list_datasets()
        assert len(specs) == 6


@pytest.mark.parametrize("name", list(TABLE_1))
class TestTable1Fidelity:
    def test_logical_stats_match_paper(self, name):
        nodes, edges, feats, classes, split = TABLE_1[name]
        spec = dataset_spec(name)
        assert spec.logical_num_nodes == nodes
        assert spec.logical_num_edges == edges
        assert spec.num_features == feats
        assert spec.num_classes == classes
        assert (spec.split.train, spec.split.val, spec.split.test) == split

    def test_built_graph_carries_logical_stats(self, name):
        graph = get_dataset(name, scale=0.2)
        nodes, edges, *_ = TABLE_1[name]
        assert graph.stats.logical_num_nodes == nodes
        assert graph.stats.logical_num_edges == edges


class TestTaskTypes:
    def test_multilabel_datasets(self):
        assert dataset_spec("ppi").multilabel
        assert dataset_spec("yelp").multilabel

    def test_single_label_datasets(self):
        for name in ("flickr", "ogbn-arxiv", "reddit", "ogbn-products"):
            assert not dataset_spec(name).multilabel


class TestBundling:
    """Observation 1: PyG bundles 5 of 6 datasets, DGL 3 of 6."""

    def test_pyg_bundles_five(self):
        assert sum(spec.in_pyg for spec in list_datasets()) == 5

    def test_dgl_bundles_three(self):
        assert sum(spec.in_dgl for spec in list_datasets()) == 3


class TestBuilder:
    def test_cache_returns_same_object(self):
        a = get_dataset("ppi", scale=0.25)
        b = get_dataset("ppi", scale=0.25)
        assert a is b

    def test_different_scales_are_distinct(self):
        a = get_dataset("ppi", scale=0.25)
        b = get_dataset("ppi", scale=0.5)
        assert a is not b
        assert b.num_nodes > a.num_nodes

    def test_clear_cache(self):
        a = get_dataset("ppi", scale=0.25)
        clear_cache()
        b = get_dataset("ppi", scale=0.25)
        assert a is not b

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_scale_rejected(self, scale):
        with pytest.raises(DatasetError):
            get_dataset("ppi", scale=scale)

    def test_masks_follow_split_fractions(self):
        graph = get_dataset("flickr", scale=0.5)
        frac = graph.train_mask.mean()
        assert frac == pytest.approx(0.50, abs=0.02)

    def test_reddit_is_densest(self):
        """Reddit's logical average degree (~492) dwarfs the others —
        the driver behind its Powerup < 1 in Figure 20."""
        degrees = {s.name: s.logical_num_edges / s.logical_num_nodes
                   for s in list_datasets()}
        assert max(degrees, key=degrees.get) == "reddit"
        assert degrees["reddit"] > 400

    def test_labels_within_range(self):
        graph = get_dataset("ogbn-arxiv", scale=0.3)
        assert graph.labels.min() >= 0
        assert graph.labels.max() < graph.stats.num_classes

    def test_multilabel_labels_are_binary_matrix(self):
        graph = get_dataset("ppi", scale=0.3)
        assert graph.labels.ndim == 2
        assert graph.labels.shape[1] == 121
