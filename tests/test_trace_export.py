"""Tests for Chrome-trace export."""

import json

import pytest

from repro.hardware.device import KernelCost
from repro.telemetry.exporters import device_trace_events, write_merged_trace


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
