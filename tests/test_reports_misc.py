"""Tests for report rendering and repeated-run statistics."""

import pytest

from repro.bench.repeats import RepeatedStats, run_repeated


class TestRepeatedStats:
    def test_moments(self):
        # Sample (N-1) std: at the 3-5 repeats benches run, the population
        # formula would understate spread.
        stats = RepeatedStats((1.0, 2.0, 3.0))
        assert stats.mean == pytest.approx(2.0)
        assert stats.std == pytest.approx(1.0)
        assert stats.cov == pytest.approx(0.5)

    def test_constant_series_has_zero_cov(self):
        stats = RepeatedStats((5.0, 5.0, 5.0))
        assert stats.std == 0.0
        assert stats.cov == 0.0

    def test_run_repeated_requires_seeds(self):
        with pytest.raises(ValueError):
            run_repeated([], framework="dglite", dataset="ppi",
                         model="graphsage")

    def test_run_repeated_aggregates(self):
        stats = run_repeated(
            (0, 1), framework="dglite", dataset="ppi", model="graphsage",
            placement="cpu", epochs=1, representative_batches=1,
            dataset_scale=0.3,
        )
        assert set(stats) == {"total_time", "sampling", "energy"}
        assert len(stats["total_time"].values) == 2
        assert stats["total_time"].mean > 0

    def test_same_seed_zero_variance(self):
        stats = run_repeated(
            (3, 3), framework="dglite", dataset="ppi", model="graphsage",
            placement="cpu", epochs=1, representative_batches=1,
            dataset_scale=0.3,
        )
        assert stats["total_time"].cov == pytest.approx(0.0, abs=1e-9)
