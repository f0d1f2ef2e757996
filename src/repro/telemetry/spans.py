"""Hierarchical span tracing over the virtual and wall clocks.

A *span* is a named, nested interval of work: it records when it started
and ended on the simulated :class:`~repro.simtime.VirtualClock` (the
timebase every figure reports) **and** on the host wall clock (the
timebase the overhead ablation budgets), plus structured attributes and
parent/child identity.  Spans nest freely, and the paper's four-phase
rollup is derived as a *view* over the span tree
(:meth:`SpanTracer.phase_rollup`) instead of being the storage format.

Spans tagged with ``category="phase"`` participate in the rollup with
**exclusive** time semantics: a phase span's contribution is its own
duration minus the duration of any phase spans nested inside it, so
nesting never double-counts and a run without nested phases sums plain
clock deltas.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro.simtime import VirtualClock

#: Category marking spans that contribute to the four-phase rollup.
PHASE_CATEGORY = "phase"
#: The paper's runtime breakdown (Figures 6, 10, 14, 19, 21).
PHASES = ("data_loading", "sampling", "data_movement", "training")


@dataclass
class Span:
    """One nested interval of work with dual-clock timing."""

    name: str
    span_id: int
    parent_id: Optional[int]
    depth: int
    category: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)
    start_virtual: float = 0.0
    end_virtual: Optional[float] = None
    start_wall: float = 0.0
    end_wall: Optional[float] = None
    #: Seconds credited without clock movement (epoch extrapolation).
    credited: float = 0.0
    #: Virtual seconds consumed by *nested* phase spans (rollup exclusion).
    child_phase_virtual: float = field(default=0.0, repr=False)

    @property
    def closed(self) -> bool:
        return self.end_virtual is not None

    @property
    def virtual_seconds(self) -> float:
        if self.end_virtual is None:
            return 0.0
        return self.end_virtual - self.start_virtual

    @property
    def wall_seconds(self) -> float:
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    @property
    def phase_seconds(self) -> float:
        """This span's exclusive contribution to the phase rollup."""
        return self.virtual_seconds - self.child_phase_virtual + self.credited

    def to_event(self) -> Dict[str, object]:
        """JSON-lines record (``type: span``) for the event exporter."""
        event: Dict[str, object] = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "category": self.category,
            "ts": self.start_virtual,
            "dur": self.virtual_seconds,
            "wall_ts": self.start_wall,
            "wall_dur": self.wall_seconds,
        }
        if self.credited:
            event["credited"] = self.credited
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        return event


class _SpanContext:
    """Exception-safe context manager around one open span.

    Class-based (not a generator) so ``__exit__`` always runs — including
    during generator teardown paths that bypass a ``@contextmanager``'s
    resume — and the tracer's stack can never be left dangling.
    """

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer.end_span(self.span)
        return False


class SpanTracer:
    """Collects a tree of spans against a virtual clock + wall clock.

    ``clock`` may be ``None`` (virtual timestamps stay 0; useful for unit
    tests of pure structure).  ``wall_clock`` is injectable so tests can
    pin wall time deterministically.
    """

    def __init__(self, clock: Optional[VirtualClock] = None,
                 wall_clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._wall = wall_clock
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self._spans: List[Span] = []

    # ------------------------------------------------------------------
    def _now_virtual(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def current(self) -> Optional[Span]:
        """The innermost open span, or None outside any span."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, category: str = "", **attrs) -> _SpanContext:
        """Open a child span of the current span; use as a context manager."""
        return _SpanContext(self, self.start_span(name, category, **attrs))

    def start_span(self, name: str, category: str = "", **attrs) -> Span:
        """Low-level open; prefer :meth:`span`, which always closes."""
        parent = self.current()
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            category=category,
            attrs=dict(attrs),
            start_virtual=self._now_virtual(),
            start_wall=self._wall(),
        )
        self._stack.append(span)
        self._spans.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close ``span``, unwinding any dangling children left open."""
        if span.closed:
            return
        while self._stack:
            top = self._stack.pop()
            if top is not span:
                # A child was abandoned (e.g. generator teardown skipped
                # its exit); close it at the same instant so the stack
                # and the rollup stay consistent.
                top.attrs.setdefault("abandoned", True)
            self._close(top)
            if top is span:
                return
        # Span was not on the stack (already unwound defensively).
        self._close(span)

    def _close(self, span: Span) -> None:
        span.end_virtual = self._now_virtual()
        span.end_wall = self._wall()
        if span.category == PHASE_CATEGORY:
            for ancestor in reversed(self._stack):
                if ancestor.category == PHASE_CATEGORY:
                    ancestor.child_phase_virtual += span.virtual_seconds
                    break

    def credit(self, name: str, seconds: float, category: str = PHASE_CATEGORY,
               **attrs) -> Span:
        """Record ``seconds`` of extrapolated work as a zero-length span.

        Used when representative batches stand in for a full epoch: the
        clock did not move, but the rollup must still account the time.
        """
        if seconds < 0:
            raise ValueError("cannot credit negative time")
        parent = self.current()
        now_v, now_w = self._now_virtual(), self._wall()
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            depth=len(self._stack),
            category=category,
            attrs=dict(attrs),
            start_virtual=now_v,
            end_virtual=now_v,
            start_wall=now_w,
            end_wall=now_w,
            credited=seconds,
        )
        self._spans.append(span)
        return span

    # ------------------------------------------------------------------
    def spans(self, category: Optional[str] = None) -> List[Span]:
        """All spans in start order, optionally filtered by category."""
        if category is None:
            return list(self._spans)
        return [s for s in self._spans if s.category == category]

    def iter_closed(self) -> Iterator[Span]:
        return (s for s in self._spans if s.closed)

    def max_depth(self) -> int:
        return max((s.depth for s in self._spans), default=-1) + 1

    def phase_rollup(self) -> Dict[str, float]:
        """Exclusive virtual seconds per phase name (the paper's 4-phase
        breakdown as a view over the span tree)."""
        rollup: Dict[str, float] = {}
        for span in self._spans:
            if span.category != PHASE_CATEGORY or not span.closed:
                continue
            rollup[span.name] = rollup.get(span.name, 0.0) + span.phase_seconds
        return rollup
