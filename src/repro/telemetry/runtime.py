"""Ambient telemetry session: one tracer + one registry per activation.

Hot paths (kernels, transfers, samplers, the trainer) never hold a
reference to a session; they ask this module for the active registry or
tracer and skip instrumentation when telemetry is off.  The disabled
path is a single function call returning ``None``, which is what keeps
the documented <5% overhead budget trivially satisfiable when telemetry
is not requested.

Sessions stack (LIFO) so a nested activation — e.g. a unit test inside
an instrumented harness — shadows rather than clobbers the outer one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, List, Optional

from repro.simtime import VirtualClock
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer


class TelemetrySession:
    """One observed run: a span tracer and a metrics registry."""

    def __init__(self, clock: Optional[VirtualClock] = None,
                 wall_clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.tracer = SpanTracer(clock, wall_clock)
        self.metrics = MetricsRegistry()


_STACK: List[TelemetrySession] = []


def active() -> Optional[TelemetrySession]:
    """The innermost active session, or None when telemetry is off."""
    return _STACK[-1] if _STACK else None


def tracer() -> Optional[SpanTracer]:
    return _STACK[-1].tracer if _STACK else None


def tracer_for(clock: VirtualClock) -> SpanTracer:
    """The ambient tracer when it runs on ``clock``, else a private one.

    Drivers that account phases call this once: under a session on the
    same clock their phase spans land in its exported artifacts;
    otherwise the rollup stays private to the run.
    """
    ambient = tracer()
    if ambient is not None and ambient.clock is clock:
        return ambient
    return SpanTracer(clock)


def metrics() -> Optional[MetricsRegistry]:
    return _STACK[-1].metrics if _STACK else None


def push_session(session: TelemetrySession) -> TelemetrySession:
    """Activate ``session`` (prefer the :func:`session` context manager)."""
    _STACK.append(session)
    return session


def pop_session(session: TelemetrySession) -> None:
    """Deactivate ``session`` (and anything stacked above it)."""
    while _STACK:
        if _STACK.pop() is session:
            return
    raise RuntimeError("pop_session: session was not active")


@contextmanager
def session(clock: Optional[VirtualClock] = None,
            wall_clock: Callable[[], float] = time.perf_counter,
            ) -> Iterator[TelemetrySession]:
    """Activate a fresh session for the duration of the block."""
    sess = TelemetrySession(clock, wall_clock)
    push_session(sess)
    try:
        yield sess
    finally:
        pop_session(sess)


def maybe_span(name: str, category: str = "", **attrs):
    """A span on the active tracer, or a no-op context when disabled."""
    if not _STACK:
        return nullcontext(None)
    return _STACK[-1].tracer.span(name, category, **attrs)
