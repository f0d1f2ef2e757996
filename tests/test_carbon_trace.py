"""Tests for carbon accounting and Chrome-trace export."""

import json

import pytest

from repro.hardware.device import KernelCost
from repro.power.carbon import GRID_INTENSITY, CarbonReport, carbon_from_energy
from repro.power.monitor import EnergyMonitor
from repro.telemetry.exporters import device_trace_events, write_merged_trace


def _report(machine, busy_seconds=1.0):
    monitor = EnergyMonitor(machine, interval=0.1)
    monitor.start()
    machine.cpu.execute(KernelCost("work", fixed_time=busy_seconds))
    return monitor.stop()


class TestCarbon:
    def test_grams_formula(self, machine):
        report = _report(machine)
        carbon = carbon_from_energy(report, grid="texas", pue=1.5)
        expected = report.total_energy / 3.6e6 * 1.5 * GRID_INTENSITY["texas"]
        assert carbon.grams_co2eq == pytest.approx(expected)

    def test_cleaner_grid_emits_less(self, machine):
        report = _report(machine)
        texas = carbon_from_energy(report, grid="texas")
        sweden = carbon_from_energy(report, grid="sweden")
        assert sweden.grams_co2eq < texas.grams_co2eq

    def test_pue_uplift(self, machine):
        report = _report(machine)
        bare = carbon_from_energy(report, pue=1.0)
        dc = carbon_from_energy(report, pue=2.0)
        assert dc.grams_co2eq == pytest.approx(2 * bare.grams_co2eq)

    def test_unknown_grid_rejected(self, machine):
        with pytest.raises(KeyError):
            carbon_from_energy(_report(machine), grid="mars")

    def test_sub_unity_pue_rejected(self, machine):
        with pytest.raises(ValueError):
            carbon_from_energy(_report(machine), pue=0.9)

    def test_kg_and_km_equivalents(self):
        carbon = CarbonReport(energy_kwh=1.0, grid="world",
                              intensity=192.0, pue=1.0)
        assert carbon.kg_co2eq == pytest.approx(0.192)
        assert carbon.equivalent_km_driven() == pytest.approx(1.0)

    def test_longer_run_emits_more(self, machine):
        short = carbon_from_energy(_report(machine, 0.5))
        long = carbon_from_energy(_report(machine, 2.0))
        assert long.grams_co2eq > short.grams_co2eq


class TestTrace:
    def test_events_cover_busy_intervals(self, machine):
        machine.cpu.execute(KernelCost("gemm", fixed_time=0.5))
        machine.pcie.h2d(1e9, tag="features")
        events = device_trace_events(machine.clock)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "gemm" in names and "features" in names

    def test_lane_metadata_present(self, machine):
        machine.cpu.execute(KernelCost("k", fixed_time=0.1))
        events = device_trace_events(machine.clock)
        metas = [e for e in events if e["ph"] == "M"]
        assert any(m["args"]["name"] == machine.cpu.name for m in metas)

    def test_timestamps_in_microseconds(self, machine):
        machine.clock.advance(1.0)
        machine.cpu.execute(KernelCost("k", fixed_time=0.25))
        event = next(e for e in device_trace_events(machine.clock) if e["ph"] == "X")
        assert event["ts"] == pytest.approx(1.0e6)
        assert event["dur"] == pytest.approx(0.25e6, rel=1e-3)

    def test_write_trace_roundtrips(self, machine, tmp_path):
        machine.cpu.execute(KernelCost("k", fixed_time=0.1))
        path = write_merged_trace(tmp_path / "deep" / "trace.json",
                                  machine.clock, tracer=None)
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        assert payload["metadata"]["source"].startswith("repro")

    def test_trace_of_real_experiment(self, tmp_path):
        """End-to-end: a training run produces a valid, non-trivial trace."""
        from repro.frameworks import get_framework
        from repro.hardware.machine import paper_testbed
        from repro.models.graphsage import build_graphsage, graphsage_sampler
        from repro.models.trainer import MiniBatchTrainer, TrainConfig
        machine = paper_testbed()
        fw = get_framework("dglite")
        fgraph = fw.load("ppi", machine, scale=0.3)
        sampler = graphsage_sampler(fw, fgraph, seed=0)
        net = build_graphsage(fw, fgraph, hidden=16, seed=0)
        MiniBatchTrainer(fw, fgraph, sampler, net,
                         TrainConfig(epochs=1, representative_batches=2)).run()
        path = write_merged_trace(tmp_path / "run.json", machine.clock,
                                  tracer=None)
        events = json.loads(path.read_text())["traceEvents"]
        assert len(events) > 50
