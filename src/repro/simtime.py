"""Virtual time for the simulated machine.

All runtimes reported by the benchmark harness come from a
:class:`VirtualClock` that kernels and transfers advance explicitly.  Real
numpy execution time never leaks into results, which makes every figure
deterministic and lets the cost models represent the paper's testbed (dual
Xeon Silver 4114 + Quadro RTX 8000) rather than this container.

Devices can advance the clock in two modes:

* ``advance(dt)`` — serial progress: the whole machine moves forward.
* ``occupy(device_key, dt)`` — per-device busy tracking used by the power
  model to integrate dynamic power only while a device is actually busy.

Multi-lane schedules (the streaming datapipe) are built with
:class:`LaneScheduler`: each resource (sampler-worker CPUs, PCIe, GPU)
gets its own timeline, jobs are placed at the max of their dependency
finish times and their lane's front, and ``drain()`` commits the busy
intervals in one pass and advances the machine clock once to the latest
lane front — replacing per-call serial ``advance()`` on the hot path.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

#: Tolerance for interval-ordering checks (floating-point bookkeeping).
_EPS = 1e-9


@dataclass
class DeferredRecord:
    """Work measured inside a :meth:`VirtualClock.deferred` block."""

    total: float = 0.0
    busy: Dict[str, float] = field(default_factory=dict)


@dataclass
class BusyInterval:
    """A half-open interval [start, end) during which a device was busy."""

    device: str
    start: float
    end: float
    tag: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class VirtualClock:
    """A monotonically advancing simulated clock with busy-interval tracking."""

    def __init__(self) -> None:
        self._now: float = 0.0
        self._defer_depth: int = 0
        self._defer_record: Optional["DeferredRecord"] = None
        #: (key, start, end, tag) rows in commit order; ``busy_intervals()``
        #: materialises :class:`BusyInterval` objects on read.
        self._busy: List[Tuple[str, float, float, str]] = []
        # Per-device sorted indexes for O(log n) busy_time queries: the
        # energy monitor samples busy_time thousands of times per run.
        # Intervals per device are disjoint and start-ordered because the
        # clock is serial.  Double arrays: appended to like lists, read by
        # numpy without a copy.
        self._starts: Dict[str, array] = {}
        self._ends: Dict[str, array] = {}
        self._cumdur: Dict[str, array] = {}
        self._listeners: List[Callable[[float, float], None]] = []

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def add_listener(self, fn: Callable[[float, float], None]) -> None:
        """Register ``fn(old_now, new_now)`` to run on every advance."""
        self._listeners.append(fn)

    def remove_listener(self, fn: Callable[[float, float], None]) -> None:
        self._listeners.remove(fn)

    def advance(self, dt: float) -> None:
        """Move simulated time forward by ``dt`` seconds."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt}")
        if self._defer_depth > 0:
            self._defer_record.total += dt
            return
        old = self._now
        self._now += dt
        for fn in self._listeners:
            fn(old, self._now)

    def occupy(self, device: str, dt: float, tag: str = "") -> None:
        """Advance the clock by ``dt`` and mark ``device`` busy during it."""
        if dt < 0:
            raise ValueError(f"cannot occupy for negative dt={dt}")
        if self._defer_depth > 0:
            rec = self._defer_record
            rec.total += dt
            rec.busy[device] = rec.busy.get(device, 0.0) + dt
            return
        # Record the interval before advancing so clock listeners (power
        # sampling) see the kernel that is causing this advance.
        if dt > 0:
            self._record(device, self._now, self._now + dt, dt, tag)
        self.advance(dt)

    def _record(self, key: str, start: float, end: float, seconds: float,
                tag: str) -> None:
        """Append one busy interval to ``key``'s trace and sorted indexes.

        ``seconds`` is passed rather than derived: ``(start + dt) - start``
        is not ``dt`` in floating point, and busy sums feed the energy
        integral.
        """
        self._busy.append((key, start, end, tag))
        starts, ends, cum = self._index(key)
        starts.append(start)
        ends.append(end)
        cum.append(cum[-1] + seconds)

    @contextmanager
    def deferred(self) -> Iterator["DeferredRecord"]:
        """Measure work inside the block without applying it to the clock.

        Every ``advance``/``occupy`` inside the block accumulates into the
        returned :class:`DeferredRecord` (total seconds + per-device busy)
        and leaves ``now`` untouched.  The caller decides how to apply the
        measured cost afterwards — the datapipe scales it by the stage's
        worker inflation and places it on the stage's lane.  Nesting is
        not supported.
        """
        if self._defer_depth > 0:
            raise RuntimeError("deferred() blocks cannot nest")
        record = DeferredRecord()
        self._defer_depth += 1
        self._defer_record = record
        try:
            yield record
        finally:
            self._defer_depth -= 1
            self._defer_record = None

    def occupy_parallel(self, durations: Dict[str, float],
                        tag: str = "parallel") -> None:
        """Mark several devices busy over the same window.

        A synchronous parallel region (e.g. a ring all-reduce): every
        device is busy from ``now`` and the clock advances by the longest
        duration.  Inside a :meth:`deferred` block the same cost goes to
        the open record instead — per-device busy seconds plus the longest
        duration on ``total`` — and ``now`` stays put.
        """
        durations = {d: dt for d, dt in durations.items() if dt > 0}
        if not durations:
            return
        longest = max(durations.values())
        if self._defer_depth > 0:
            self._defer_record.total += longest
            self.credit_busy(durations)
            return
        for device, dt in durations.items():
            self._record(device, self._now, self._now + dt, dt, tag)
        self.advance(longest)

    def credit_busy(self, durations: Dict[str, float]) -> None:
        """Credit devices that worked *concurrently* with the open
        :meth:`deferred` block: busy seconds on the record, no time on its
        ``total`` (the data-parallel trainer's replicas mirror rank 0).
        There is no live-timeline form — a clock never writes busy
        intervals into its past."""
        if self._defer_depth == 0:
            raise RuntimeError("credit_busy() needs an open deferred() block")
        busy = self._defer_record.busy
        for device, dt in durations.items():
            busy[device] = busy.get(device, 0.0) + dt

    @property
    def deferred_seconds(self) -> float:
        """Seconds measured so far by the open :meth:`deferred` block (0.0
        outside one) — ``now`` does not move inside it."""
        return self._defer_record.total if self._defer_depth > 0 else 0.0

    def commit_schedule(
            self, schedule: Iterable[Tuple[float, str, str, float, str]]) -> None:
        """Record an externally scheduled multi-lane timeline in one pass.

        :class:`LaneScheduler.drain` hands over its whole schedule as
        ``(start, device, lane, seconds, tag)`` rows: intervals may lie in
        the clock's *future* (the caller advances afterwards) but must
        arrive start-ordered and disjoint per key.  With ``lane`` set, the
        interval is recorded under the ``device@lane`` key (its own trace
        lane) and additionally merged into the base device's busy-time
        index as a *union* across lanes, so power metering — which asks
        ``busy_time(device)`` — keeps seeing the device as busy whenever
        any of its lanes is.
        """
        tracks: Dict[Tuple[str, str], tuple] = {}
        log = self._busy.append
        for start, device, lane, seconds, tag in schedule:
            end = start + seconds
            if end < start:
                raise ValueError(f"interval ends before it starts ({start}..{end})")
            if end - start <= 0:
                continue
            track = tracks.get((device, lane))
            if track is None:  # resolve the key and its indexes once
                key = f"{device}@{lane}" if lane else device
                track = tracks[device, lane] = (
                    key, self._index(key), self._index(device) if lane else None)
            key, (starts, ends, cum), union = track
            if ends:
                last = ends[-1]
                if start < last - _EPS:
                    raise ValueError(
                        f"interval [{start}, {end}) overlaps existing busy time on "
                        f"{key!r} (last end {last})"
                    )
                if start < last:
                    start = last
                if end <= start:
                    continue
            log((key, start, end, tag))
            starts.append(start)
            ends.append(end)
            cum.append(cum[-1] + (end - start))
            if union is not None:  # fold into the base device's busy-time union
                starts, ends, cum = union
                last = ends[-1] if ends else None
                if last is None or start > last + _EPS:
                    starts.append(start)
                    ends.append(end)
                    cum.append(cum[-1] + (end - start))
                elif end > last:  # extends the trailing interval
                    cum[-1] += end - last
                    ends[-1] = end

    def _index(self, key: str) -> Tuple[array, array, array]:
        """``key``'s (starts, ends, cumulative seconds), created on first use."""
        if key not in self._starts:
            self._starts[key], self._ends[key] = array("d"), array("d")
            self._cumdur[key] = array("d", (0.0,))
        return self._starts[key], self._ends[key], self._cumdur[key]

    def busy_time(self, device: str, start: Union[float, np.ndarray] = 0.0,
                  end: Union[float, np.ndarray, None] = None
                  ) -> Union[float, np.ndarray]:
        """Total busy seconds for ``device`` within [start, end).

        ``start``/``end`` may be arrays — one window per element, ``start``
        broadcast against ``end`` — and then so is the result; every
        element goes through the same clip arithmetic.
        """
        if not self._starts.get(device):
            return np.zeros(np.shape(end)) if np.ndim(end) else 0.0
        starts = np.asarray(start, dtype=float)
        ends = np.asarray(self._now if end is None else end, dtype=float)
        first, last, cum = map(np.frombuffer, self._index(device))
        # Intervals are disjoint and ordered; find each overlapping slice.
        lo = last.searchsorted(starts, side="right")
        hi = first.searchsorted(ends, side="left")
        busy = cum[hi] - cum[lo]
        # Clip the leading and the trailing interval (an empty slice reads
        # a neighbour, and is discarded below).
        busy -= np.maximum(0.0, starts - first[np.minimum(lo, len(first) - 1)])
        busy -= np.maximum(0.0, last[hi - 1] - ends)
        total = np.where((lo < hi) & (ends > starts), np.maximum(0.0, busy), 0.0)
        return total if total.ndim else float(total)

    def busy_intervals(self, device: Optional[str] = None) -> List[BusyInterval]:
        """Busy intervals, optionally filtered by device key."""
        return [BusyInterval(*row) for row in self._busy
                if device is None or row[0] == device]


@dataclass
class LaneJob:
    """One scheduled unit of work on a :class:`LaneScheduler` lane."""

    # An epoch holds one per batch and stage; spelled out because
    # ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = ("job_id", "lane", "start", "end", "total", "busy", "tag",
                 "ready")
    job_id: int
    lane: str
    start: float
    end: float
    total: float
    busy: Dict[str, float]
    tag: str
    #: Earliest time the job *could* have started (dependency finish);
    #: ``start - ready`` is the time it queued behind its lane.
    ready: float

    @property
    def wait(self) -> float:
        return self.start - self.ready


class LaneScheduler:
    """Event-driven per-resource timelines over one :class:`VirtualClock`.

    Each lane (a sampler-worker CPU, the PCIe link, the GPU, ...) is an
    independent timeline with a monotone *front*.  ``submit()`` places a
    job at the max of its predecessor's finish time, an optional explicit
    lower bound, and its lane's front — so lanes overlap freely while
    work on one lane stays serial.  Nothing touches the clock until
    ``drain()``, which commits every job's per-device busy time (under
    ``device@lane`` keys, see :meth:`VirtualClock.commit_schedule`) and
    advances the machine clock once, to the latest lane front.

    The scheduler is one-shot: ``drain()`` finalizes it.  Pipelines build
    one scheduler per epoch.
    """

    def __init__(self, clock: VirtualClock, origin: Optional[float] = None) -> None:
        self.clock = clock
        self.origin = clock.now if origin is None else origin
        self.jobs: List[LaneJob] = []
        self._fronts: Dict[str, float] = {}
        self._drained = False

    @property
    def finish(self) -> float:
        """The latest lane front (absolute time)."""
        return max(self._fronts.values()) if self._fronts else self.origin

    def submit(self, lane: str, work: Union[DeferredRecord, float],
               after: Optional[LaneJob] = None, not_before: float = 0.0,
               tag: str = "") -> LaneJob:
        """Schedule measured ``work`` on ``lane``.

        ``work`` is a :class:`DeferredRecord` (measured inside
        ``clock.deferred()``) or plain seconds.  ``after`` is the job that
        must finish first; ``not_before`` adds an absolute lower bound
        (e.g. bounded-queue backpressure).  The job keeps the record's
        own busy dict: nothing mutates a submitted record.
        """
        if not isinstance(work, DeferredRecord):
            if work < 0:
                raise ValueError("cannot schedule negative duration")
            work = DeferredRecord(total=float(work))
        return self.submit_chain(((lane, work, tag),), after, not_before)

    def submit_chain(self, steps: Iterable[Tuple[str, DeferredRecord, str]],
                     after: Optional[LaneJob] = None,
                     not_before: float = 0.0) -> LaneJob:
        """Schedule ``(lane, record, tag)`` steps, each after the one before
        it, and return the last job (``after`` itself for no steps).

        ``after`` and ``not_before`` bound the first step as in
        :meth:`submit`.  This loop is the one placement rule: a job starts
        when it is ready and its lane is free.
        """
        if self._drained:
            raise RuntimeError("LaneScheduler already drained")
        origin, jobs, fronts = self.origin, self.jobs, self._fronts
        ready = max(origin, not_before)
        job = after
        if after is not None and after.end > ready:
            ready = after.end
        for lane, record, tag in steps:
            total = record.total
            start = max(ready, fronts.get(lane, origin))
            end = fronts[lane] = start + total
            job = LaneJob(len(jobs), lane, start, end, total, record.busy, tag,
                          ready)
            jobs.append(job)
            ready = end
        return job

    def lane_busy(self) -> Dict[str, float]:
        """Total scheduled busy seconds per lane (sum of job durations)."""
        totals: Dict[str, float] = {}
        for job in self.jobs:
            totals[job.lane] = totals.get(job.lane, 0.0) + job.total
        return totals

    def drain(self) -> float:
        """Commit the schedule to the clock; returns the elapsed seconds.

        Busy intervals are recorded *before* the single advance so clock
        listeners (power sampling) integrate over the full multi-lane
        timeline, mirroring how ``occupy()`` records-then-advances.
        """
        if self._drained:
            raise RuntimeError("LaneScheduler already drained")
        self._drained = True
        schedule = [
            (job.start, device, job.lane, min(seconds, job.total), job.tag)
            for job in self.jobs for device, seconds in job.busy.items()
            if seconds > 0 and job.total > 0
        ]
        # Stable, so rows that tie on (start, device) stay in job order.
        schedule.sort(key=itemgetter(0, 1))
        self.clock.commit_schedule(schedule)
        elapsed = self.finish - self.clock.now
        if elapsed > 0:
            self.clock.advance(elapsed)
        return max(0.0, elapsed)
