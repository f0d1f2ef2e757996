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
intervals and advances the machine clock once to the latest lane front —
replacing per-call serial ``advance()`` on the hot path.
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

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
        self._busy: List[BusyInterval] = []
        # Per-device sorted indexes for O(log n) busy_time queries: the
        # energy monitor samples busy_time thousands of times per run.
        # Intervals per device are disjoint and start-ordered because the
        # clock is serial.
        self._starts: Dict[str, List[float]] = {}
        self._ends: Dict[str, List[float]] = {}
        self._cumdur: Dict[str, List[float]] = {}
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
        self._busy.append(BusyInterval(key, start, end, tag))
        self._starts.setdefault(key, []).append(start)
        self._ends.setdefault(key, []).append(end)
        cum = self._cumdur.setdefault(key, [0.0])
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

    def commit_interval(self, device: str, start: float, end: float,
                        tag: str = "", lane: str = "") -> None:
        """Record an externally scheduled busy interval.

        :class:`LaneScheduler.drain` uses this to materialize a multi-lane
        schedule: intervals may lie in the clock's *future* (the caller
        advances afterwards) but must arrive start-ordered and disjoint per
        key.  With ``lane`` set, the interval is recorded under the
        ``device@lane`` key (its own trace lane) and additionally merged
        into the base device's busy-time index as a *union* across lanes,
        so power metering — which asks ``busy_time(device)`` — keeps
        seeing the device as busy whenever any of its lanes is.
        """
        if end < start:
            raise ValueError(f"interval ends before it starts ({start}..{end})")
        if end - start <= 0:
            return
        key = f"{device}@{lane}" if lane else device
        ends = self._ends.get(key)
        if ends and start < ends[-1] - _EPS:
            raise ValueError(
                f"interval [{start}, {end}) overlaps existing busy time on "
                f"{key!r} (last end {ends[-1]})"
            )
        start = max(start, ends[-1]) if ends else start
        if end <= start:
            return
        self._record(key, start, end, end - start, tag)
        if lane:
            self._union_merge(device, start, end)

    def _union_merge(self, device: str, start: float, end: float) -> None:
        """Fold one lane interval into the base device's busy-time union."""
        starts = self._starts.setdefault(device, [])
        ends = self._ends.setdefault(device, [])
        cum = self._cumdur.setdefault(device, [0.0])
        if ends and start <= ends[-1] + _EPS:
            if end > ends[-1]:  # extends the trailing interval
                cum[-1] += end - ends[-1]
                ends[-1] = end
            return
        starts.append(start)
        ends.append(end)
        cum.append(cum[-1] + (end - start))

    def busy_time(self, device: str, start: float = 0.0, end: Optional[float] = None) -> float:
        """Total busy seconds for ``device`` within [start, end)."""
        if end is None:
            end = self._now
        starts = self._starts.get(device)
        if not starts or end <= start:
            return 0.0
        ends = self._ends[device]
        cum = self._cumdur[device]
        # Intervals are disjoint and ordered; find the overlapping slice.
        lo = bisect.bisect_right(ends, start)
        hi = bisect.bisect_left(starts, end)
        if lo >= hi:
            return 0.0
        total = cum[hi] - cum[lo]
        total -= max(0.0, start - starts[lo])  # clip leading interval
        total -= max(0.0, ends[hi - 1] - end)  # clip trailing interval
        return max(0.0, total)

    def busy_intervals(self, device: Optional[str] = None) -> List[BusyInterval]:
        """Busy intervals, optionally filtered by device key."""
        if device is None:
            return list(self._busy)
        return [iv for iv in self._busy if iv.device == device]


@dataclass
class LaneJob:
    """One scheduled unit of work on a :class:`LaneScheduler` lane."""

    job_id: int
    lane: str
    start: float
    end: float
    total: float
    busy: Dict[str, float]
    tag: str = ""
    #: Earliest time the job *could* have started (dependency finish);
    #: ``start - ready`` is the time it queued behind its lane.
    ready: float = 0.0

    @property
    def wait(self) -> float:
        return self.start - self.ready


class LaneScheduler:
    """Event-driven per-resource timelines over one :class:`VirtualClock`.

    Each lane (a sampler-worker CPU, the PCIe link, the GPU, ...) is an
    independent timeline with a monotone *front*.  ``submit()`` places a
    job at the max of its dependency finish times, an optional explicit
    lower bound, and its lane's front — so lanes overlap freely while
    work on one lane stays serial.  Nothing touches the clock until
    ``drain()``, which commits every job's per-device busy time (under
    ``device@lane`` keys, see :meth:`VirtualClock.commit_interval`) and
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

    def submit(self, lane: str, work: Union[DeferredRecord, float], *,
               deps: Sequence[LaneJob] = (), not_before: float = 0.0,
               tag: str = "") -> LaneJob:
        """Schedule measured ``work`` on ``lane``.

        ``work`` is a :class:`DeferredRecord` (measured inside
        ``clock.deferred()``) or plain seconds.  ``deps`` are jobs that
        must finish first; ``not_before`` adds an absolute lower bound
        (e.g. bounded-queue backpressure).  The job keeps the record's
        own busy dict: nothing mutates a submitted record.
        """
        if self._drained:
            raise RuntimeError("LaneScheduler already drained")
        if isinstance(work, DeferredRecord):
            total, busy = work.total, work.busy
        elif work < 0:
            raise ValueError("cannot schedule negative duration")
        else:
            total, busy = float(work), {}
        ready = max(self.origin, not_before)
        for dep in deps:
            if dep.end > ready:
                ready = dep.end
        start = max(ready, self._fronts.get(lane, self.origin))
        job = LaneJob(
            job_id=len(self.jobs), lane=lane, start=start, end=start + total,
            total=total, busy=busy, tag=tag, ready=ready,
        )
        self._fronts[lane] = job.end
        self.jobs.append(job)
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
        commits = []
        for job in self.jobs:
            for device, seconds in job.busy.items():
                seconds = min(seconds, job.total)
                if seconds > 0:
                    commits.append((job.start, device, job.job_id, seconds, job))
        commits.sort()  # (start, device, job_id): unique, never compares jobs
        for start, device, _, seconds, job in commits:
            self.clock.commit_interval(device, start, start + seconds,
                                       tag=job.tag, lane=job.lane)
        elapsed = self.finish - self.clock.now
        if elapsed > 0:
            self.clock.advance(elapsed)
        return max(0.0, elapsed)
