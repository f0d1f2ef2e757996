"""Telemetry exporters: JSON-lines events, Prometheus text, Chrome trace.

Three machine-readable views over one session:

* ``events.jsonl`` — every span (dual-clock timing, parent ids, attrs)
  and every metric's final state, one JSON object per line, led by a
  schema header line.  The stream is the ground truth the other views
  are derived from; ``repro report --telemetry`` and the tests re-derive
  the four-phase rollup from it.
* ``metrics.prom`` — a Prometheus exposition-format snapshot of the
  registry (scrape-shaped, diffable between runs).
* ``trace.json`` — the existing device-lane Chrome trace *merged* with
  span events, so kernels (pid 0, one lane per device) and hierarchical
  spans (pid 1, one lane per nesting depth) land on a single Perfetto
  timeline.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.artifacts import atomic_write
from repro.simtime import VirtualClock
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.runtime import TelemetrySession
from repro.telemetry.spans import SpanTracer

EVENTS_SCHEMA = "repro.telemetry.events/1"
TRACE_SOURCE = "repro telemetry (devices + spans)"

#: Chrome-trace process ids for the two merged lanes.
DEVICE_PID = 0
SPAN_PID = 1


# ----------------------------------------------------------------------
# events.jsonl
# ----------------------------------------------------------------------
def event_records(tracer: SpanTracer,
                  registry: Optional[MetricsRegistry] = None) -> List[dict]:
    """Header + span + metric records, in deterministic order."""
    records: List[dict] = [{"type": "header", "schema": EVENTS_SCHEMA}]
    records.extend(span.to_event() for span in tracer.spans())
    if registry is not None:
        records.extend(registry.snapshot())
    return records


def write_events_jsonl(path: Union[str, Path], tracer: SpanTracer,
                       registry: Optional[MetricsRegistry] = None) -> Path:
    lines = [json.dumps(rec, sort_keys=True) for rec in event_records(tracer, registry)]
    return atomic_write(path, "\n".join(lines) + "\n")


def read_events_jsonl(path: Union[str, Path]) -> List[dict]:
    """Parse an events stream back into records (round-trip testing)."""
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# metrics.prom
# ----------------------------------------------------------------------
def write_prometheus(path: Union[str, Path], registry: MetricsRegistry) -> Path:
    return atomic_write(path, registry.prometheus_text())


# ----------------------------------------------------------------------
# merged Chrome trace
# ----------------------------------------------------------------------
#: Stable thread ids for the well-known device lanes in the trace viewer.
DEVICE_LANES = ("storage", "pcie")


def device_trace_events(clock: VirtualClock, time_unit: float = 1e6) -> List[dict]:
    """Device busy intervals as Chrome 'complete' (ph=X) events (pid 0).

    ``time_unit`` scales seconds into the trace's microsecond timestamps.
    Lane (tid) assignment is deterministic: the well-known
    :data:`DEVICE_LANES` get fixed ids, remaining devices are numbered by
    sorted name rather than first-seen order, so traces from two runs of
    the same config diff cleanly.
    """
    intervals = clock.busy_intervals()  # materialised on read: read once
    lanes = {device: tid for tid, device in enumerate(DEVICE_LANES)}
    seen = {interval.device for interval in intervals}
    for device in sorted(seen - set(DEVICE_LANES)):
        lanes[device] = len(lanes)

    events = []
    for interval in intervals:
        events.append({
            "name": interval.tag or "busy",
            "cat": interval.device,
            "ph": "X",
            "ts": interval.start * time_unit,
            "dur": interval.duration * time_unit,
            "pid": DEVICE_PID,
            "tid": lanes[interval.device],
        })
    # lane naming metadata
    for device, tid in lanes.items():
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": DEVICE_PID,
            "tid": tid,
            "args": {"name": device},
        })
    return events


def span_trace_events(tracer: SpanTracer, time_unit: float = 1e6) -> List[dict]:
    """Spans as Chrome 'complete' events, one thread lane per depth."""
    events: List[dict] = []
    depths = set()
    for span in tracer.iter_closed():
        depths.add(span.depth)
        args: Dict[str, object] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.category:
            args["category"] = span.category
        if span.credited:
            args["credited_seconds"] = span.credited
        args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "ts": span.start_virtual * time_unit,
            "dur": span.virtual_seconds * time_unit,
            "pid": SPAN_PID,
            "tid": span.depth,
            "args": args,
        })
    for depth in sorted(depths):
        events.append({
            "name": "thread_name", "ph": "M", "pid": SPAN_PID, "tid": depth,
            "args": {"name": f"spans depth {depth}"},
        })
    return events


def merged_trace_events(clock: VirtualClock, tracer: Optional[SpanTracer],
                        time_unit: float = 1e6) -> List[dict]:
    """Device busy intervals (pid 0) merged with spans (pid 1)."""
    events = device_trace_events(clock, time_unit)
    events.append({
        "name": "process_name", "ph": "M", "pid": DEVICE_PID,
        "args": {"name": "simulated devices"},
    })
    if tracer is not None:
        events.extend(span_trace_events(tracer, time_unit))
        events.append({
            "name": "process_name", "ph": "M", "pid": SPAN_PID,
            "args": {"name": "telemetry spans"},
        })
    return events


def write_merged_trace(path: Union[str, Path], clock: VirtualClock,
                       tracer: Optional[SpanTracer]) -> Path:
    payload = {
        "traceEvents": merged_trace_events(clock, tracer),
        "displayTimeUnit": "ms",
        "metadata": {"source": TRACE_SOURCE},
    }
    return atomic_write(path, json.dumps(payload, sort_keys=True))


# ----------------------------------------------------------------------
# the full artifact bundle
# ----------------------------------------------------------------------
def write_run_artifacts(out_dir: Union[str, Path], session: TelemetrySession,
                        clock: VirtualClock, manifest: dict) -> Dict[str, str]:
    """Write all four run artifacts; returns name -> path written."""
    from repro.telemetry.manifest import RUN

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "events": write_events_jsonl(out / "events.jsonl", session.tracer,
                                     session.metrics),
        "metrics": write_prometheus(out / "metrics.prom", session.metrics),
        "trace": write_merged_trace(out / "trace.json", clock, session.tracer),
        "manifest": RUN.write(out / "run.json", manifest),
    }
    return {name: str(path) for name, path in paths.items()}
