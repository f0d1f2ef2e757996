"""Unified telemetry: hierarchical spans + cross-stack metrics.

Import surface is deliberately light — only the core tracing/metrics
types and the ambient-session helpers live here, so that importing
``repro.telemetry`` from hot paths (or from ``repro.profiling``, which
the exporters themselves depend on) never forms an import cycle.
Exporters and the run manifest are imported explicitly::

    from repro.telemetry.exporters import write_run_artifacts
    from repro.telemetry.manifest import build_run_manifest
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.runtime import (
    TelemetrySession,
    active,
    maybe_span,
    metrics,
    pop_session,
    push_session,
    session,
    tracer,
    tracer_for,
)
from repro.telemetry.spans import PHASE_CATEGORY, PHASES, Span, SpanTracer

__all__ = [
    "PHASE_CATEGORY",
    "PHASES",
    "Span",
    "SpanTracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetrySession",
    "active",
    "maybe_span",
    "metrics",
    "pop_session",
    "push_session",
    "session",
    "tracer",
    "tracer_for",
]
