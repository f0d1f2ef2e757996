"""The run manifest (``run.json``) and schema validation for all artifacts.

``run.json`` is the machine-readable summary of one instrumented run:
what was executed (command, config, dataset, seed), where the time went
(the four-phase rollup derived from the span tree, kernel families),
what moved (the metrics snapshot), and what it cost (energy totals plus
p50/p95/peak power — the paper reports peak power explicitly).

Everything in the manifest is derived from the *virtual* clock and the
seeded simulation, so two runs with the same config and seed emit
byte-identical manifests — asserted by ``tests/test_telemetry.py``.
Wall-clock timings live only in ``events.jsonl``.

:data:`RUN` is the manifest's format (:mod:`repro.artifacts`); it and
the ``validate_*`` stream checks are the schema gate every reader of a
run directory passes through (:func:`validate_run_dir`, called by
``repro profile analyze|diff``): each returns a list of human-readable
problems, empty when the artifact conforms.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.artifacts import NUM, Format, MapOf, OneOf, Opt, conform, load
from repro.telemetry.exporters import EVENTS_SCHEMA, read_events_jsonl
from repro.telemetry.spans import PHASES
from repro.telemetry.runtime import TelemetrySession


def build_provenance() -> dict:
    """Environment fingerprint embedded in run manifests and bench artifacts.

    Perf baselines (``BENCH_*.json``) outlive the environment that
    produced them; recording the interpreter/library versions makes a
    drifted comparison diagnosable.  Everything here is deterministic
    within one environment, so manifest byte-determinism across same-seed
    runs is preserved.
    """
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.system().lower(),
    }


def build_run_manifest(
    *,
    command: str,
    label: str,
    dataset: str,
    seed: int,
    config: Dict[str, object],
    phases: Dict[str, float],
    kernel_families: Dict[str, float],
    session: TelemetrySession,
    energy=None,
    hardware: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> dict:
    """Assemble the deterministic run summary.

    ``energy`` is an :class:`~repro.power.monitor.EnergyReport` (duck
    typed to avoid the import cycle); None when the run was unmonitored.
    """
    total = sum(phases.values())
    manifest: dict = {
        "schema": RUN.schema,
        "command": command,
        "label": label,
        "dataset": dataset,
        "seed": int(seed),
        "config": dict(config),
        "phases": {name: float(secs) for name, secs in sorted(phases.items())},
        "phase_fractions": {
            name: (secs / total if total > 0 else 0.0)
            for name, secs in sorted(phases.items())
        },
        "total_seconds": total,
        "kernel_families": {k: float(v) for k, v in sorted(kernel_families.items())},
        "spans": {
            "count": len(session.tracer.spans()),
            "max_depth": session.tracer.max_depth(),
            "phase_spans": len(session.tracer.spans(category="phase")),
        },
        "metrics": session.metrics.snapshot(),
        "hardware": dict(hardware or {}),
        "provenance": build_provenance(),
    }
    if energy is not None:
        manifest["energy"] = {
            "duration_s": energy.duration,
            "samples": energy.samples,
            "cpu_joules": energy.cpu_energy,
            "gpu_joules": energy.gpu_energy,
            "total_joules": energy.total_energy,
            "avg_power_w": energy.avg_power,
            "peak_power_w": energy.peak_power,
            "cpu_power_w": energy.cpu_power_stats(),
            "gpu_power_w": energy.gpu_power_stats(),
        }
    else:
        manifest["energy"] = None
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


#: One metric record as :meth:`MetricsRegistry.snapshot` writes it; the
#: keys that carry its value depend on its kind (:data:`_METRIC_VALUE`).
METRIC = {"name": str, "kind": OneOf("counter", "gauge", "histogram"),
          "labels": dict}
_METRIC_VALUE = {"counter": {"value": NUM}, "gauge": {"value": NUM},
                 "histogram": {"buckets": list, "count": int}}
_SPAN_COUNTS = ("count", "max_depth", "phase_spans")
_POWER_STATS = {key: NUM for key in ("avg", "p50", "p95", "peak")}


def _metric_problems(record: object, path: str) -> List[str]:
    return (conform(record, METRIC, path)
            or conform(record, _METRIC_VALUE[record["kind"]], path))


def _check_run(manifest: dict) -> List[str]:
    """Known phases, non-negative seconds and counts, fractions summing
    to 1, well-formed metrics, and positive device peaks."""
    problems = []
    for name, seconds in manifest["phases"].items():
        if name not in PHASES:
            problems.append(f"phases[{name!r}]: unknown phase")
        if seconds < 0:
            problems.append(f"phases[{name!r}]: negative seconds {seconds!r}")
    fraction_sum = sum(manifest["phase_fractions"].values())
    if manifest["phase_fractions"] and not 0.999 <= fraction_sum <= 1.001:
        problems.append(f"phase_fractions: sum to {fraction_sum}, expected 1")
    problems += [f"spans.{key}: negative" for key in _SPAN_COUNTS
                 if manifest["spans"][key] < 0]
    for index, record in enumerate(manifest["metrics"]):
        problems += _metric_problems(record, f"metrics[{index}]")
    hardware = manifest["hardware"]
    if hardware and "devices" not in hardware:  # empty = legacy producer
        problems.append("hardware.devices: missing")
    for name, spec in (hardware.get("devices") or {}).items():
        problems += [f"hardware.devices[{name!r}].{key}: must be positive"
                     for key in ("peak_flops", "mem_bandwidth")
                     if spec[key] <= 0]
    return problems


RUN = Format("repro.telemetry.run/1", {
    "command": str,
    "label": str,
    "dataset": str,
    "seed": int,
    "config": dict,
    "phases": MapOf(NUM),
    "phase_fractions": MapOf(NUM),
    "total_seconds": NUM,
    "kernel_families": dict,
    "spans": {key: int for key in _SPAN_COUNTS},
    "metrics": list,
    "hardware": {
        "devices": Opt(MapOf({"kind": OneOf("cpu", "gpu"),
                              "peak_flops": NUM, "mem_bandwidth": NUM})),
        "link": Opt({"bandwidth": NUM}),
        "storage": Opt({"read_bandwidth": NUM}),
    },
    "energy": Opt({
        **{key: NUM for key in ("duration_s", "samples", "cpu_joules",
                                "gpu_joules", "total_joules", "avg_power_w",
                                "peak_power_w")},
        "cpu_power_w": _POWER_STATS,
        "gpu_power_w": _POWER_STATS,
    }),
}, check=_check_run)


def validate_events_records(records: Sequence[object]) -> List[str]:
    problems: List[str] = []
    if not records:
        return ["events stream is empty"]
    header = records[0]
    if not isinstance(header, dict) or header.get("type") != "header":
        problems.append("first record must be the schema header")
    elif header.get("schema") != EVENTS_SCHEMA:
        problems.append(f"unknown events schema {header.get('schema')!r}")
    seen_ids = set()
    for index, record in enumerate(records[1:], 1):
        if not isinstance(record, dict):
            problems.append("record is not an object")
            continue
        rtype = record.get("type")
        if rtype == "span":
            for key in ("id", "name", "ts", "dur", "depth"):
                if key not in record:
                    problems.append(f"span record missing {key!r}")
            span_id = record.get("id")
            if span_id in seen_ids:
                problems.append(f"duplicate span id {span_id}")
            seen_ids.add(span_id)
            parent = record.get("parent")
            if parent is not None and parent not in seen_ids:
                problems.append(f"span {span_id} has unknown parent {parent}")
        elif rtype == "metric":
            problems.extend(_metric_problems(record, f"records[{index}]"))
        else:
            problems.append(f"unknown record type {rtype!r}")
    return problems


def validate_chrome_trace(payload: object) -> List[str]:
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["trace is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    pids = set()
    for event in events:
        if not isinstance(event, dict):
            problems.append("trace event is not an object")
            continue
        if event.get("ph") not in ("X", "M"):
            problems.append(f"unexpected event phase {event.get('ph')!r}")
        if "pid" not in event or "name" not in event:
            problems.append("trace event missing pid/name")
        if event.get("ph") == "X":
            pids.add(event.get("pid"))
            if not isinstance(event.get("ts"), (int, float)) \
                    or not isinstance(event.get("dur"), (int, float)):
                problems.append(f"complete event {event.get('name')!r} missing ts/dur")
    named_lanes = {
        (e.get("pid"), e.get("tid"))
        for e in events
        if isinstance(e, dict) and e.get("ph") == "M"
        and e.get("name") == "thread_name"
    }
    for event in events:
        if isinstance(event, dict) and event.get("ph") == "X":
            if (event.get("pid"), event.get("tid")) not in named_lanes:
                problems.append(
                    f"lane pid={event.get('pid')} tid={event.get('tid')} has "
                    "no thread_name metadata"
                )
                break
    return problems


def validate_prometheus_text(text: str) -> List[str]:
    problems: List[str] = []
    typed = set()
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                problems.append(f"line {line_no}: malformed TYPE comment")
            else:
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        body = line.rsplit(" ", 1)
        if len(body) != 2:
            problems.append(f"line {line_no}: expected 'name value'")
            continue
        name, value = body
        try:
            float(value)
        except ValueError:
            problems.append(f"line {line_no}: non-numeric value {value!r}")
        base = name.split("{", 1)[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in typed:
                base = base[: -len(suffix)]
                break
        if base not in typed:
            problems.append(f"line {line_no}: sample {base!r} has no TYPE comment")
    return problems


def validate_run_dir(out_dir: Union[str, Path]) -> List[str]:
    """Validate all four artifacts of one telemetry output directory."""
    out = Path(out_dir)
    problems: List[str] = []
    expected = {
        "run.json": lambda p: RUN.validate(load(p)),
        "events.jsonl": lambda p: validate_events_records(read_events_jsonl(p)),
        "trace.json": lambda p: validate_chrome_trace(load(p)),
        "metrics.prom": lambda p: validate_prometheus_text(p.read_text()),
    }
    for name, check in expected.items():
        path = out / name
        if not path.exists():
            problems.append(f"{name}: missing")
            continue
        try:
            problems.extend(f"{name}: {p}" for p in check(path))
        except ValueError as exc:
            problems.append(f"{name}: unparseable ({exc})")
    return problems
