"""Tests for the logical memory ledger (simulated OOM)."""

import pytest

from repro.errors import OutOfMemoryError
from repro.hardware.memory import MemoryLedger


class TestAllocation:
    def test_alloc_tracks_usage(self):
        ledger = MemoryLedger("dev", capacity=1000)
        ledger.alloc(400, "a")
        assert ledger.in_use == 400

    def test_exceeding_capacity_raises_oom(self):
        ledger = MemoryLedger("dev", capacity=1000)
        ledger.alloc(900)
        with pytest.raises(OutOfMemoryError) as err:
            ledger.alloc(200)
        assert err.value.requested == 200
        assert err.value.in_use == 900
        assert err.value.capacity == 1000
        assert "dev" in str(err.value)

    def test_failed_alloc_leaves_usage_unchanged(self):
        ledger = MemoryLedger("dev", capacity=100)
        with pytest.raises(OutOfMemoryError):
            ledger.alloc(200)
        assert ledger.in_use == 0

    def test_exact_fit_allowed(self):
        ledger = MemoryLedger("dev", capacity=100)
        ledger.alloc(100)
        assert ledger.in_use == ledger.capacity

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            MemoryLedger("dev", 100).alloc(-1)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            MemoryLedger("dev", 0)


class TestRelease:
    def test_release_returns_bytes(self):
        ledger = MemoryLedger("dev", capacity=100)
        alloc = ledger.alloc(60)
        ledger.release(alloc)
        assert ledger.in_use == 0

    def test_release_is_idempotent(self):
        """Tensor finalizers may fire after the owner already released."""
        ledger = MemoryLedger("dev", capacity=100)
        alloc = ledger.alloc(60)
        ledger.release(alloc)
        ledger.release(alloc)  # no error, no double-credit
        assert ledger.in_use == 0


class TestPeak:
    def test_peak_tracks_high_water_mark(self):
        ledger = MemoryLedger("dev", capacity=100)
        a = ledger.alloc(70)
        ledger.release(a)
        ledger.alloc(20)
        assert ledger.peak == 70
        assert ledger.in_use == 20

    def test_reset_peak(self):
        ledger = MemoryLedger("dev", capacity=100)
        a = ledger.alloc(70)
        ledger.release(a)
        ledger.reset_peak()
        assert ledger.peak == 0

