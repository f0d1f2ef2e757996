"""Loading one telemetry output directory into analyzable form.

A :class:`RunBundle` is the parsed, virtual-clock view of the four run
artifacts (``run.json``, ``events.jsonl``, ``trace.json``,
``metrics.prom``).  Wall-clock fields are deliberately dropped: every
analysis downstream is a deterministic function of the simulation, and
keeping wall time out is what makes the emitted ``repro.profile/1``
artifacts byte-identical across same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.artifacts import load
from repro.errors import BenchmarkError


@dataclass(frozen=True)
class LaneInterval:
    """One device busy interval [start, end) on the virtual clock."""

    lane: str  # device / link / storage lane name
    name: str  # kernel or transfer tag
    start: float  # virtual seconds
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RunBundle:
    """Everything the analyses need from one telemetry directory."""

    manifest: dict
    span_records: List[dict] = field(default_factory=list)
    intervals: List[LaneInterval] = field(default_factory=list)

    @property
    def label(self) -> str:
        return str(self.manifest.get("label", "?"))

    @property
    def total_seconds(self) -> float:
        return float(self.manifest.get("total_seconds", 0.0))

    @property
    def metric_records(self) -> List[dict]:
        return list(self.manifest.get("metrics", []))

    @property
    def hardware(self) -> dict:
        return dict(self.manifest.get("hardware", {}))

    def counter_series(self, name: str) -> Dict[tuple, float]:
        """All series of one counter, keyed by sorted label items."""
        series: Dict[tuple, float] = {}
        for record in self.metric_records:
            if record.get("name") != name or record.get("kind") != "counter":
                continue
            key = tuple(sorted(record.get("labels", {}).items()))
            series[key] = series.get(key, 0.0) + float(record.get("value", 0.0))
        return series

    def counter_by(self, name: str, label: str) -> Dict[str, float]:
        """One counter summed per value of ``label`` (``"?"`` if unset)."""
        totals: Dict[str, float] = {}
        for labels, value in self.counter_series(name).items():
            key = str(dict(labels).get(label, "?"))
            totals[key] = totals.get(key, 0.0) + value
        return totals

    def kernel_series(self) -> Dict[tuple, Dict[str, float]]:
        """(device, kernel) -> {flops, bytes, seconds, launches}: the one
        join of the four ``kernel.*`` counters."""
        series: Dict[tuple, Dict[str, float]] = {}
        for metric, field_name in (("kernel.flops", "flops"),
                                   ("kernel.bytes_moved", "bytes"),
                                   ("kernel.busy_seconds", "seconds"),
                                   ("kernel.invocations", "launches")):
            for labels, value in self.counter_series(metric).items():
                labeled = dict(labels)
                key = (labeled.get("device", "?"), labeled.get("kernel", "?"))
                entry = series.setdefault(key, {"flops": 0.0, "bytes": 0.0,
                                                "seconds": 0.0, "launches": 0.0})
                entry[field_name] += value
        return series


def _trace_intervals(payload: dict) -> List[LaneInterval]:
    """Device lanes (pid 0) of a validated merged Chrome trace, back in
    seconds from its microseconds."""
    from repro.telemetry.exporters import DEVICE_PID

    intervals = []
    for event in payload["traceEvents"]:
        if event["ph"] == "X" and event["pid"] == DEVICE_PID:
            start = event["ts"] / 1e6
            intervals.append(LaneInterval(lane=str(event.get("cat", "?")),
                                          name=str(event["name"]),
                                          start=start,
                                          end=start + event["dur"] / 1e6))
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.lane, iv.name))
    return intervals


def load_run_bundle(out_dir: Union[str, Path]) -> RunBundle:
    """Parse one telemetry directory once all four artifacts validate.

    Raises :class:`BenchmarkError` listing every ``file: problem``
    (:func:`~repro.telemetry.manifest.validate_run_dir`).
    """
    from repro.telemetry.exporters import read_events_jsonl
    from repro.telemetry.manifest import validate_run_dir

    out = Path(out_dir)
    if not out.is_dir():
        raise BenchmarkError(
            f"not a telemetry directory: {out} "
            "(produce one with `repro train --telemetry DIR`)")
    problems = validate_run_dir(out)
    if problems:
        raise BenchmarkError("\n  ".join(
            [f"{len(problems)} problem(s) in {out}:"] + problems))
    spans = [r for r in read_events_jsonl(out / "events.jsonl")
             if r.get("type") == "span"]
    return RunBundle(manifest=load(out / "run.json"),
                     span_records=spans,
                     intervals=_trace_intervals(load(out / "trace.json")))


def device_peaks(bundle: RunBundle) -> Dict[str, dict]:
    """Device name -> spec dict from the manifest's hardware section."""
    devices = bundle.hardware.get("devices")
    return dict(devices) if isinstance(devices, dict) else {}


def link_spec(bundle: RunBundle) -> Optional[dict]:
    link = bundle.hardware.get("link")
    return dict(link) if isinstance(link, dict) else None
