"""Tests for the virtual clock."""

import pytest

from repro.simtime import VirtualClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_moves_time(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_listeners_see_old_and_new(self):
        clock = VirtualClock()
        seen = []
        clock.add_listener(lambda old, new: seen.append((old, new)))
        clock.advance(2.0)
        clock.advance(1.0)
        assert seen == [(0.0, 2.0), (2.0, 3.0)]

    def test_removed_listener_stops_firing(self):
        clock = VirtualClock()
        seen = []
        listener = lambda old, new: seen.append(new)
        clock.add_listener(listener)
        clock.advance(1.0)
        clock.remove_listener(listener)
        clock.advance(1.0)
        assert seen == [1.0]


class TestOccupy:
    def test_occupy_advances_and_records(self):
        clock = VirtualClock()
        clock.occupy("cpu", 2.0)
        assert clock.now == pytest.approx(2.0)
        assert clock.busy_time("cpu") == pytest.approx(2.0)

    def test_busy_time_is_per_device(self):
        clock = VirtualClock()
        clock.occupy("cpu", 1.0)
        clock.occupy("gpu", 3.0)
        assert clock.busy_time("cpu") == pytest.approx(1.0)
        assert clock.busy_time("gpu") == pytest.approx(3.0)

    def test_busy_time_window_clips_intervals(self):
        clock = VirtualClock()
        clock.occupy("cpu", 4.0)  # busy over [0, 4)
        assert clock.busy_time("cpu", 1.0, 3.0) == pytest.approx(2.0)
        assert clock.busy_time("cpu", 5.0, 6.0) == 0.0

    def test_zero_occupy_records_nothing(self):
        clock = VirtualClock()
        clock.occupy("cpu", 0.0)
        assert clock.busy_intervals("cpu") == []

    def test_interval_visible_to_listener_during_advance(self):
        """Power sampling reads busy intervals from inside clock listeners."""
        clock = VirtualClock()
        seen_busy = []
        clock.add_listener(lambda old, new: seen_busy.append(clock.busy_time("cpu", old, new)))
        clock.occupy("cpu", 2.0)
        assert seen_busy == [pytest.approx(2.0)]

    def test_negative_occupy_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().occupy("cpu", -1.0)
