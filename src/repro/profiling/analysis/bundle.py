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

from repro.artifacts import load, summarize
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

    def lanes(self) -> List[str]:
        return sorted({iv.lane for iv in self.intervals})

    def counter_series(self, name: str) -> Dict[tuple, float]:
        """All series of one counter, keyed by sorted label items."""
        series: Dict[tuple, float] = {}
        for record in self.metric_records:
            if record.get("name") != name or record.get("kind") != "counter":
                continue
            key = tuple(sorted(record.get("labels", {}).items()))
            series[key] = series.get(key, 0.0) + float(record.get("value", 0.0))
        return series


def _trace_intervals(payload: dict, time_unit: float = 1e6) -> List[LaneInterval]:
    """Device lanes (pid 0) of a merged Chrome trace, back in seconds."""
    from repro.telemetry.exporters import DEVICE_PID

    events = payload.get("traceEvents", [])
    intervals = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        if event.get("pid") != DEVICE_PID:
            continue
        start = float(event["ts"]) / time_unit
        duration = float(event["dur"]) / time_unit
        intervals.append(LaneInterval(
            lane=str(event.get("cat", "?")),
            name=str(event.get("name", "busy")),
            start=start,
            end=start + duration,
        ))
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.lane, iv.name))
    return intervals


def load_run_bundle(out_dir: Union[str, Path]) -> RunBundle:
    """Parse one telemetry directory; raises on missing/invalid artifacts."""
    from repro.telemetry.exporters import read_events_jsonl
    from repro.telemetry.manifest import RUN

    out = Path(out_dir)
    manifest_path = out / "run.json"
    trace_path = out / "trace.json"
    events_path = out / "events.jsonl"
    for path in (manifest_path, trace_path, events_path):
        if not path.exists():
            raise BenchmarkError(
                f"not a telemetry directory: {out} is missing {path.name} "
                "(produce one with `repro train --telemetry DIR`)")
    manifest = load(manifest_path)
    problems = RUN.validate(manifest)
    if problems:
        raise BenchmarkError(f"{manifest_path}: invalid run manifest: "
                             f"{summarize(problems)}")
    spans = [r for r in read_events_jsonl(events_path)
             if r.get("type") == "span"]
    trace = load(trace_path)
    return RunBundle(manifest=manifest,
                     span_records=spans,
                     intervals=_trace_intervals(trace))


def device_peaks(bundle: RunBundle) -> Dict[str, dict]:
    """Device name -> spec dict from the manifest's hardware section."""
    devices = bundle.hardware.get("devices")
    return dict(devices) if isinstance(devices, dict) else {}


def link_spec(bundle: RunBundle) -> Optional[dict]:
    link = bundle.hardware.get("link")
    return dict(link) if isinstance(link, dict) else None
