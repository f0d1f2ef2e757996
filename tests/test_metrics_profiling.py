"""Tests for GPS-UP metrics and the phase profiler/report."""

import pytest

from repro.metrics.gpsup import GpsUp, gps_up
from repro.telemetry.spans import PHASE_CATEGORY, SpanTracer
from repro.simtime import VirtualClock


class TestGpsUp:
    def test_identities(self):
        m = gps_up(base_time=10.0, base_energy=100.0, opt_time=2.0, opt_energy=50.0)
        assert m.speedup == pytest.approx(5.0)
        assert m.greenup == pytest.approx(2.0)
        assert m.powerup == pytest.approx(2.5)

    def test_powerup_is_speedup_over_greenup(self):
        m = GpsUp(speedup=3.0, greenup=1.5)
        assert m.powerup == pytest.approx(3.0 / 1.5)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            gps_up(0.0, 1.0, 1.0, 1.0)

    def test_categories(self):
        assert GpsUp(2.0, 3.0).category() == "green-fast-cool"  # powerup < 1
        assert GpsUp(3.0, 2.0).category() == "green-fast-hot"
        assert GpsUp(2.0, 0.5).category() == "red-fast"
        assert GpsUp(0.5, 2.0).category() == "green-slow"
        assert GpsUp(0.5, 0.5).category() == "red-slow"

    def test_figure20_reddit_case(self):
        """GPU sampling on Reddit: faster and greener but draws more power
        (Powerup < 1 in the paper's convention means power went UP when
        Powerup = P_opt / P_base... the paper plots Speedup/Greenup)."""
        m = gps_up(base_time=10.0, base_energy=2000.0,
                   opt_time=3.0, opt_energy=1500.0)
        assert m.speedup > 1
        assert m.greenup > 1
        assert m.powerup > 1  # optimized draws more average power


class TestPhaseProfiler:
    """Phase accounting on :class:`SpanTracer` (the ``PhaseProfiler`` shim
    these cases were written against is gone; its callers hold a tracer)."""

    @staticmethod
    def _phase(tracer, name):
        return tracer.span(name, PHASE_CATEGORY)

    def test_measures_clock_deltas(self):
        clock = VirtualClock()
        tracer = SpanTracer(clock)
        with self._phase(tracer, "sampling"):
            clock.advance(2.0)
        with self._phase(tracer, "training"):
            clock.advance(3.0)
        rollup = tracer.phase_rollup()
        assert rollup["sampling"] == pytest.approx(2.0)
        assert sum(rollup.values()) == pytest.approx(5.0)

    def test_phases_accumulate(self):
        clock = VirtualClock()
        tracer = SpanTracer(clock)
        for _ in range(3):
            with self._phase(tracer, "training"):
                clock.advance(1.0)
        assert tracer.phase_rollup()["training"] == pytest.approx(3.0)

    def test_nested_phases_attribute_exclusively(self):
        # The inner phase's time is excluded from the outer phase so the
        # rollup never double-counts.
        clock = VirtualClock()
        tracer = SpanTracer(clock)
        with self._phase(tracer, "a"):
            clock.advance(2.0)
            with self._phase(tracer, "b"):
                clock.advance(1.0)
            clock.advance(0.5)
        rollup = tracer.phase_rollup()
        assert rollup["a"] == pytest.approx(2.5)
        assert rollup["b"] == pytest.approx(1.0)
        assert sum(rollup.values()) == pytest.approx(3.5)

    def test_phase_exception_does_not_wedge_profiler(self):
        # Regression: a raise inside a phase span must close it and
        # still record the elapsed time.
        clock = VirtualClock()
        tracer = SpanTracer(clock)
        with pytest.raises(ValueError):
            with self._phase(tracer, "sampling"):
                clock.advance(1.0)
                raise ValueError("boom")
        assert tracer.current() is None
        assert tracer.phase_rollup()["sampling"] == pytest.approx(1.0)
        # The tracer is reusable afterwards.
        with self._phase(tracer, "training"):
            clock.advance(2.0)
        assert tracer.phase_rollup()["training"] == pytest.approx(2.0)

    def test_add_credits_without_clock(self):
        clock = VirtualClock()
        tracer = SpanTracer(clock)
        tracer.credit("training", 5.0)
        assert tracer.phase_rollup()["training"] == 5.0
        assert clock.now == 0.0

    def test_negative_credit_rejected(self):
        with pytest.raises(ValueError):
            SpanTracer(VirtualClock()).credit("x", -1.0)
