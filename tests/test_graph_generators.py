"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph.generators import (
    correlated_features,
    dcsbm_graph,
    power_law_degrees,
    split_masks,
)


class TestPowerLawDegrees:
    def test_sums_near_target(self):
        rng = np.random.default_rng(0)
        degrees = power_law_degrees(1000, 10_000, rng=rng)
        assert degrees.sum() == pytest.approx(10_000, rel=0.15)

    def test_min_degree_one(self):
        degrees = power_law_degrees(100, 200, rng=np.random.default_rng(0))
        assert degrees.min() >= 1

    def test_heavy_tail(self):
        degrees = power_law_degrees(5000, 100_000, rng=np.random.default_rng(0))
        assert degrees.max() > 10 * np.median(degrees)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            power_law_degrees(0, 10)


class TestDcsbm:
    def test_deterministic_given_seed(self):
        a, _ = dcsbm_graph(200, 1000, seed=3)
        b, _ = dcsbm_graph(200, 1000, seed=3)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)

    def test_different_seeds_differ(self):
        a, _ = dcsbm_graph(200, 1000, seed=3)
        b, _ = dcsbm_graph(200, 1000, seed=4)
        assert not (np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst))

    def test_symmetric_and_loop_free(self):
        coo, _ = dcsbm_graph(300, 2000, seed=1)
        assert not np.any(coo.src == coo.dst)
        pairs = set(zip(coo.src.tolist(), coo.dst.tolist()))
        assert all((d, s) in pairs for s, d in pairs)

    def test_edge_count_near_target(self):
        coo, _ = dcsbm_graph(500, 4000, seed=2)
        assert coo.num_edges == pytest.approx(4000, rel=0.5)

    def test_community_assortativity(self):
        """Intra-community edges should dominate with high intra_prob."""
        coo, comm = dcsbm_graph(400, 4000, num_communities=4, intra_prob=0.9, seed=5)
        intra_frac = float((comm[coo.src] == comm[coo.dst]).mean())
        assert intra_frac > 0.5

    def test_invalid_communities_rejected(self):
        with pytest.raises(ValueError):
            dcsbm_graph(10, 20, num_communities=0)



class TestFeaturesAndLabels:
    def test_shapes_single_label(self):
        comm = np.random.default_rng(0).integers(0, 4, 100)
        x, y = correlated_features(comm, 8, 5, seed=0)
        assert x.shape == (100, 8)
        assert y.shape == (100,)
        assert y.min() >= 0 and y.max() < 5

    def test_shapes_multilabel(self):
        comm = np.random.default_rng(0).integers(0, 4, 100)
        x, y = correlated_features(comm, 8, 6, multilabel=True, seed=0)
        assert y.shape == (100, 6)
        assert set(np.unique(y)) <= {0.0, 1.0}
        # every node carries at least its community's primary label
        assert np.all(y.sum(axis=1) >= 1)

    def test_features_correlate_with_community(self):
        comm = np.repeat(np.arange(4), 50)
        x, _ = correlated_features(comm, 16, 4, noise=0.1, seed=0)
        centroid0 = x[comm == 0].mean(axis=0)
        centroid1 = x[comm == 1].mean(axis=0)
        within = np.linalg.norm(x[comm == 0] - centroid0, axis=1).mean()
        between = np.linalg.norm(centroid0 - centroid1)
        assert between > within

    def test_deterministic(self):
        comm = np.zeros(10, dtype=np.int64)
        x1, y1 = correlated_features(comm, 4, 3, seed=9)
        x2, y2 = correlated_features(comm, 4, 3, seed=9)
        assert np.allclose(x1, x2)
        assert np.array_equal(y1, y2)


class TestSplitMasks:
    def test_partition_is_exclusive_and_exhaustive(self):
        train, val, test = split_masks(100, 0.6, 0.2, 0.2, seed=0)
        assert (train.astype(int) + val.astype(int) + test.astype(int)).max() == 1
        assert train.sum() + val.sum() + test.sum() == 100

    def test_fractions_respected(self):
        train, val, test = split_masks(1000, 0.66, 0.12, 0.22, seed=0)
        assert train.sum() == pytest.approx(660, abs=2)
        assert val.sum() == pytest.approx(120, abs=2)

    def test_deterministic(self):
        a = split_masks(50, 0.5, 0.25, 0.25, seed=3)
        b = split_masks(50, 0.5, 0.25, 0.25, seed=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
