"""Tests for the RAPL/NVML meters and the CodeCarbon-style monitor."""

import pytest

from repro.hardware.device import KernelCost
from repro.hardware.machine import paper_testbed
from repro.power.meter import NvmlMeter, RaplMeter
from repro.power.monitor import EnergyMonitor


class TestRaplMeter:
    def test_energy_is_additive_over_windows(self, machine):
        meter = RaplMeter(machine.clock, machine.cpu)
        machine.clock.advance(2.0)
        first = meter.energy_between(0.0, 2.0)
        machine.clock.advance(2.0)
        assert meter.energy_between(0.0, 4.0) == pytest.approx(2 * first)

    def test_idle_energy_is_idle_power_times_time(self, machine):
        meter = RaplMeter(machine.clock, machine.cpu)
        machine.clock.advance(10.0)
        expected = machine.cpu.spec.idle_power * 10.0
        assert meter.energy_between(0.0, 10.0) == pytest.approx(expected)

    def test_busy_energy_exceeds_idle(self, machine):
        meter = RaplMeter(machine.clock, machine.cpu)
        machine.cpu.execute(KernelCost("k", fixed_time=10.0))
        expected = machine.cpu.spec.busy_power * 10.0
        assert meter.energy_between(0.0, 10.0) == pytest.approx(expected,
                                                                rel=1e-3)

    def test_average_power_of_half_busy_window(self, machine):
        meter = RaplMeter(machine.clock, machine.cpu)
        machine.cpu.execute(KernelCost("k", fixed_time=5.0))
        machine.clock.advance(5.0)
        spec = machine.cpu.spec
        mid = (spec.idle_power + spec.busy_power) / 2
        assert meter.energy_between(0.0, 10.0) / 10.0 == pytest.approx(
            mid, rel=1e-3)

    def test_requires_cpu_device(self, machine):
        with pytest.raises(ValueError):
            RaplMeter(machine.clock, machine.gpu)


class TestNvmlMeter:
    def test_idle_instant_power(self, machine):
        meter = NvmlMeter(machine.clock, machine.gpu)
        machine.clock.advance(1.0)
        assert meter.instant_power() == pytest.approx(machine.gpu.spec.idle_power)

    def test_busy_instant_power(self, machine):
        meter = NvmlMeter(machine.clock, machine.gpu, window=0.1)
        machine.gpu.execute(KernelCost("k", fixed_time=1.0))
        assert meter.instant_power() == pytest.approx(machine.gpu.spec.busy_power)

    def test_window_averaging(self, machine):
        meter = NvmlMeter(machine.clock, machine.gpu, window=1.0)
        machine.gpu.execute(KernelCost("k", fixed_time=0.5))
        machine.clock.advance(0.5)  # window now half busy
        spec = machine.gpu.spec
        mid = (spec.idle_power + spec.busy_power) / 2
        assert meter.instant_power() == pytest.approx(mid, rel=1e-2)

    def test_requires_gpu_device(self, machine):
        with pytest.raises(ValueError):
            NvmlMeter(machine.clock, machine.cpu)

    def test_positive_window_required(self, machine):
        with pytest.raises(ValueError):
            NvmlMeter(machine.clock, machine.gpu, window=0.0)


class TestEnergyMonitor:
    def test_reports_duration_and_samples(self, machine):
        monitor = EnergyMonitor(machine, interval=0.1)
        monitor.start()
        machine.clock.advance(1.0)
        report = monitor.stop()
        assert report.duration == pytest.approx(1.0)
        # 10 interval boundaries, plus possibly one final flush sample when
        # float accumulation leaves a sliver before stop().
        assert 10 <= report.samples <= 11

    def test_cpu_energy_matches_exact_integral(self, machine):
        monitor = EnergyMonitor(machine, interval=0.1)
        monitor.start()
        machine.cpu.execute(KernelCost("k", fixed_time=0.75))
        machine.clock.advance(0.25)
        report = monitor.stop()
        exact = (machine.cpu.spec.busy_power * 0.75
                 + machine.cpu.spec.idle_power * 0.25)
        # Kernel launch overhead adds a few microseconds of busy time.
        assert report.cpu_energy == pytest.approx(exact, rel=1e-4)

    def test_gpu_energy_close_to_exact_integral(self, machine):
        monitor = EnergyMonitor(machine, interval=0.1)
        monitor.start()
        machine.gpu.execute(KernelCost("k", fixed_time=0.6))
        machine.clock.advance(0.4)
        report = monitor.stop()
        exact = (machine.gpu.spec.busy_power * 0.6
                 + machine.gpu.spec.idle_power * 0.4)
        # NVML-style sampling integrates window-averaged power: small error.
        assert report.gpu_energy == pytest.approx(exact, rel=0.1)

    def test_avg_power_definition(self, machine):
        monitor = EnergyMonitor(machine, interval=0.1)
        monitor.start()
        machine.clock.advance(2.0)
        report = monitor.stop()
        assert report.avg_power == pytest.approx(report.total_energy / 2.0)

    def test_double_start_rejected(self, machine):
        monitor = EnergyMonitor(machine, interval=0.1)
        monitor.start()
        with pytest.raises(RuntimeError):
            monitor.start()

    def test_stop_without_start_rejected(self, machine):
        with pytest.raises(RuntimeError):
            EnergyMonitor(machine).stop()

    def test_stop_detaches_listener(self, machine):
        monitor = EnergyMonitor(machine, interval=0.1)
        monitor.start()
        machine.clock.advance(0.5)
        report = monitor.stop()
        machine.clock.advance(5.0)  # after stop: no more samples taken
        assert report.samples == 5

    def test_fine_sampling_interval_like_paper(self, machine):
        """The paper uses 0.1 s instead of CodeCarbon's 15 s default."""
        fine = EnergyMonitor(machine, interval=0.1)
        assert fine.interval == 0.1
        with pytest.raises(ValueError):
            EnergyMonitor(machine, interval=0.0)

    def test_power_traces_recorded(self, machine):
        monitor = EnergyMonitor(machine, interval=0.1)
        monitor.start()
        machine.clock.advance(0.35)
        report = monitor.stop()
        assert len(report.gpu_power_trace) == report.samples
        assert all(s.watts >= machine.gpu.spec.idle_power - 1e-9
                   for s in report.gpu_power_trace)

    def test_monitor_on_cpu_only_machine(self):
        from repro.hardware.machine import Machine
        machine = Machine(gpu_spec=None)
        monitor = EnergyMonitor(machine, interval=0.1)
        monitor.start()
        machine.clock.advance(0.5)
        report = monitor.stop()
        assert report.gpu_energy == 0.0
        assert report.cpu_energy > 0.0
