"""The bounded-prefetch pipeline executor.

``run_epoch`` pulls items from a source iterator and pushes each through
a chain of :class:`Stage`\\ s.  Real work executes item-sequentially
inside ``clock.deferred()`` (numerics and RNG order identical to the
serial schedule); the measured cost of every stage execution is then
placed on the stage's resource lane by a :class:`_LaneScheduler`, where a
job is an index into columns (start, end, lane, ...) and nothing else —
the report hands on those columns and each item's finish time.
Bounded-queue backpressure is the scheduling constraint that item ``i``'s
first stage cannot start before item ``i - depth``'s last stage finished
— so ``depth-1`` reproduces the serial schedule exactly, and deeper
queues hide sampling and H2D behind GPU compute.

Two things let a serving window run on the same executor: an item may
carry a *release time* (a micro-batch cannot start before it formed), and
a stage may return :class:`EndItem` to finish its item early (a shed
batch's last job is its H2D).

The ``sampler.worker`` fault seam is honoured mid-pipeline: a crashed
worker wastes ``severity`` of the stage's cost and pays the respawn
backoff inside the affected job; past the policy's retry budget the
pipeline degrades to depth-1 on a single worker lane (inline sampling).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RecoveryExhausted
from repro.hardware.machine import Machine
from repro.resilience import runtime as resilience
from repro.resilience.plan import FaultSpec
from repro.simtime import DeferredRecord, VirtualClock
from repro.telemetry import runtime as telemetry
from repro.telemetry.runtime import maybe_span
from repro.telemetry.spans import PHASES, SpanTracer

#: Exclusive phase attribution priority: when jobs overlap on the
#: timeline, the visible phase is the paper's foreground activity.
_PHASE_PRIORITY = ("training", "data_movement", "sampling", "data_loading")


class _LaneScheduler:
    """Event-driven per-resource timelines over one :class:`VirtualClock`.

    Each lane (a sampler-worker CPU, the PCIe link, the GPU, ...) is an
    independent timeline with a monotone *front*.  ``submit()`` places a
    job at the max of its predecessor's finish time, an optional explicit
    lower bound, and its lane's front — so lanes overlap freely while
    work on one lane stays serial.  Nothing touches the clock until
    ``drain()``, which commits every job's per-device busy time (under
    ``device@lane`` keys, see :meth:`VirtualClock.commit_schedule`) and
    advances the machine clock once, to the latest lane front.

    A job is its index into columns, one entry per job in submission
    order: ``start``/``end``/``total``/``ready`` seconds (``start -
    ready`` is the time it queued behind its lane) and codes into
    ``lanes``, ``tags`` and ``records`` (each job's busy seconds per
    device).

    The scheduler is one-shot: ``drain()`` finalizes it.  ``run_epoch``
    builds one per epoch.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.origin = clock.now
        self.start, self.end, self.total, self.ready = (
            array("d") for _ in range(4))
        self.lane, self.tag, self.record = (array("q") for _ in range(3))
        self.lanes: List[str] = []
        self.tags: List[str] = []
        self.records: List[Dict[str, float]] = []
        #: Each lane's front (absolute time), by lane code.
        self.fronts: List[float] = []
        self._drained = False

    @property
    def finish(self) -> float:
        """The latest lane front (absolute time)."""
        return max(self.fronts, default=self.origin)

    def lane_code(self, lane: str) -> int:
        """``lane``'s code; a new lane's front starts at the origin."""
        code = _intern(self.lanes, lane)
        if code == len(self.fronts):
            self.fronts.append(self.origin)
        return code

    def submit(self, lane: str, work: DeferredRecord,
               after: Optional[int] = None, not_before: float = 0.0,
               tag: str = "") -> int:
        """Schedule ``work`` (measured inside ``clock.deferred()``) on
        ``lane``; returns the job's index.

        ``after`` is the index of the job that must finish first;
        ``not_before`` adds an absolute lower bound (e.g. bounded-queue
        backpressure).  This is the placement rule: a job starts when it
        is ready and its lane is free.  (``_EpochState.extrapolate``
        applies the same rule to the symbolic tail on floats alone.)  The
        job keeps the record's own busy dict: nothing mutates a submitted
        record.
        """
        if self._drained:
            raise RuntimeError("lane scheduler already drained")
        ready = max(self.origin, not_before)
        if after is not None and self.end[after] > ready:
            ready = self.end[after]
        code = self.lane_code(lane)
        start = max(ready, self.fronts[code])
        end = self.fronts[code] = start + work.total
        self.start.append(start)
        self.end.append(end)
        self.total.append(work.total)
        self.ready.append(ready)
        self.lane.append(code)
        self.tag.append(_intern(self.tags, tag))
        self.record.append(len(self.records))
        self.records.append(work.busy)
        return len(self.start) - 1

    def extend(self, **columns: Sequence) -> None:
        """Append whole columns at once (the symbolic tail)."""
        for name, values in columns.items():
            column = getattr(self, name)
            column.frombytes(np.asarray(values, column.typecode).tobytes())

    def lane_busy(self) -> Dict[str, float]:
        """Total scheduled busy seconds per lane (sum of job durations),
        lanes in first-seen order (the order they were coded in)."""
        return dict(zip(self.lanes, np.bincount(
            _view(self.lane), weights=_view(self.total),
            minlength=len(self.lanes)).tolist()))

    def drain(self) -> float:
        """Commit the schedule to the clock; returns the elapsed seconds.

        Busy intervals are recorded *before* the single advance so clock
        listeners (power sampling) integrate over the full multi-lane
        timeline, mirroring how ``occupy()`` records-then-advances.
        """
        if self._drained:
            raise RuntimeError("lane scheduler already drained")
        self._drained = True
        self.clock.commit_schedule(*self._busy_rows())
        elapsed = self.finish - self.clock.now
        if elapsed > 0:
            self.clock.advance(elapsed)
        return max(0.0, elapsed)

    def _busy_rows(self) -> tuple:
        """``commit_schedule``'s columns: one row per positive busy entry of
        each positive-length job, ordered by (start, device name) — stably,
        so rows that tie stay in job order."""
        records = self.records
        devices = sorted(set(chain.from_iterable(records)))
        code = dict(zip(devices, range(len(devices))))
        # Record r's busy seconds on device d at [r, d].
        grid = np.zeros((len(records), len(devices)))
        grid[np.repeat(np.arange(len(records)),
                       np.fromiter(map(len, records), np.intp, len(records))),
             np.fromiter(map(code.__getitem__, chain.from_iterable(records)),
                         np.intp)] = np.fromiter(
            chain.from_iterable(map(dict.values, records)), float)
        # A job bills at most its own length; live iff both are positive.
        seconds = np.minimum(grid[_view(self.record)],
                             _view(self.total)[:, None])
        job, device = (seconds > 0).nonzero()  # job order, then device's
        seconds, start = seconds[job, device], _view(self.start)[job]
        order = np.lexsort((device, start))  # device codes sort as names
        job = job[order]
        return (start[order], seconds[order], device[order], devices,
                _view(self.lane)[job], self.lanes, _view(self.tag)[job],
                self.tags)


def _intern(names: List[str], name: str) -> int:
    """``name``'s index in ``names``, appended on first use."""
    try:
        return names.index(name)
    except ValueError:
        names.append(name)
        return len(names) - 1


def _view(column: array) -> np.ndarray:
    """A column as a numpy array, without a copy (valid until it grows)."""
    return np.frombuffer(column, dtype=column.typecode)


@dataclass
class Stage:
    """One datapipe stage: a callable plus its lane/phase declaration.

    ``fn(index, payload) -> payload`` runs the real work; its clock cost
    is measured, scaled by ``scale`` (sublinear worker efficiency), and
    scheduled on ``lanes[index % len(lanes)]``.  ``phase`` names the
    four-phase bucket the stage's timeline share reports under;
    ``fault_site`` arms a resilience seam per execution.
    """

    name: str
    phase: str
    fn: Callable[[int, Any], Any]
    lanes: Tuple[str, ...]
    scale: float = 1.0
    fault_site: str = ""
    #: Tag of every job the stage submits; maps a job back to its stage.
    tag: str = field(init=False)

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"stage {self.name!r}: phase {self.phase!r} is "
                             f"not one of {PHASES}")
        if not self.lanes or not all(self.lanes):
            raise ValueError(f"stage {self.name!r}: needs at least one lane, "
                             f"each named, got {self.lanes!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"stage {self.name!r}: scale must be finite and "
                             f"> 0, got {self.scale!r}")
        self.tag = f"datapipe:{self.name}"


@dataclass
class EndItem:
    """Returned by a stage fn to end its item here, skipping later stages.

    The stage's job becomes the item's terminal job (what the bounded
    queue gates on) and ``output`` its entry in ``EpochReport.outputs``.
    """

    output: Any


@dataclass
class EpochReport:
    """Outcome of one pipelined epoch."""

    outputs: List[Any]
    elapsed: float
    executed: int
    extrapolated: int
    max_in_flight: int = 1
    degraded: bool = False
    lane_busy: Dict[str, float] = field(default_factory=dict)
    #: Each item's finish time (its last job's end), in item order,
    #: symbolic tail included.
    item_ends: List[float] = field(default_factory=list)
    #: Clean (pre-fault, post-scale) executed seconds per stage name.
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: The drained schedule (its jobs as columns) and each of its tags'
    #: phase rank, which ``phases`` is computed from.
    schedule: Optional[_LaneScheduler] = field(default=None, repr=False)
    rank: np.ndarray = field(default=None, repr=False)

    @cached_property
    def phases(self) -> Dict[str, float]:
        """Exclusive split of the epoch window into the four phases,
        computed on first read (a serving window never reads it)."""
        sched = self.schedule
        return _attribute_phases(_view(sched.start), _view(sched.end),
                                 self.rank[_view(sched.tag)], sched.origin,
                                 sched.finish)

    def credit_phases(self, tracer: SpanTracer) -> None:
        """Credit the epoch's exclusive phase seconds to ``tracer``."""
        for phase, seconds in sorted(self.phases.items()):
            tracer.credit(phase, seconds)


def run_epoch(
    machine: Machine,
    stages: Sequence[Stage],
    source: Iterable[Any],
    depth: int,
    *,
    limit: Optional[int] = None,
    extrapolate_to: int = 0,
    label: str = "",
    release: Optional[Callable[[Any], float]] = None,
) -> EpochReport:
    """Stream ``source`` through ``stages`` with ``depth`` items in flight.

    At most ``limit`` items execute for real (the representative batches);
    when ``extrapolate_to`` exceeds the executed count, the remaining
    items are replayed symbolically through the same scheduler at the
    measured mean per-stage cost, so extrapolated epochs respect the
    same lane contention and backpressure as executed ones.
    ``release(item)`` is the absolute time a source item becomes
    available: its first stage starts no earlier (and no earlier than the
    bounded queue admits it).  The report carries the drained schedule's
    columns and each item's finish time, not job objects.
    """
    if depth < 1:
        raise ValueError("pipeline depth must be >= 1")
    if not stages:
        raise ValueError("run_epoch needs at least one stage")
    names = [stage.name for stage in stages]
    for name in names:
        if names.count(name) > 1:
            # Their tags, stage totals and means would merge into one.
            raise ValueError(f"stage {name!r}: two stages share the name")
    clock = machine.clock
    sched = _LaneScheduler(clock)
    state = _EpochState(machine=machine, sched=sched, depth=depth)
    outputs: List[Any] = []

    # islice stops *before* drawing item ``limit``: pulling it would cost
    # the source one more RNG draw / sub-graph induction per epoch.
    for index, payload in enumerate(islice(source, limit)):
        first = last = None
        released = release(payload) if release is not None else 0.0
        for stage in stages:
            with clock.deferred() as rec:
                payload = stage.fn(index, payload)
            last = state.schedule(stage, index, rec, last, released)
            if first is None:
                first = last
            if isinstance(payload, EndItem):
                payload = payload.output
                break
        state.finish_item(first, last)
        outputs.append(payload)

    executed = len(outputs)
    extrapolated = max(0, extrapolate_to - executed)
    if extrapolated and executed:
        state.extrapolate(stages, executed, extrapolate_to)

    elapsed = sched.drain()
    by_tag = {stage.tag: stage for stage in stages}
    state.record_metrics(label, by_tag)
    return EpochReport(
        outputs=outputs,
        elapsed=elapsed,
        executed=executed,
        extrapolated=extrapolated,
        max_in_flight=state.max_in_flight,
        degraded=state.degraded,
        lane_busy=sched.lane_busy(),
        item_ends=[sched.end[job] for job in state.terminal],
        stage_seconds=state.stage_totals,
        schedule=sched,
        rank=np.array([_PHASE_PRIORITY.index(by_tag[tag].phase)
                       for tag in sched.tags], dtype=np.intp),
    )


class _EpochState:
    """Scheduling state threaded through one ``run_epoch`` call."""

    def __init__(self, machine: Machine, sched: _LaneScheduler, depth: int) -> None:
        self.machine = machine
        self.sched = sched
        self.depth = depth
        self.degraded = False
        self.max_in_flight = 1
        #: Each item's last job, in item order (symbolic tail included).
        self.terminal: List[int] = []
        #: Clean (pre-fault, post-scale) per-stage sums for extrapolation.
        self.stage_totals: Dict[str, float] = {}
        self.stage_busy: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def schedule(self, stage: Stage, index: int, rec: DeferredRecord,
                 prev: Optional[int], released: float) -> int:
        """Place one *executed* stage run: scale, fault seam, lane, span."""
        scale = 1.0 if self.degraded else stage.scale
        clean = DeferredRecord(
            total=rec.total * scale,
            busy={d: s * scale for d, s in rec.busy.items() if s > 0},
        )
        totals = self.stage_totals
        totals[stage.name] = totals.get(stage.name, 0.0) + clean.total
        busy_bucket = self.stage_busy.setdefault(stage.name, {})
        for device, seconds in clean.busy.items():
            busy_bucket[device] = busy_bucket.get(device, 0.0) + seconds
        record = clean
        # A degraded pipe no longer has a worker pool to crash: the site
        # is never armed again.
        if stage.fault_site and not self.degraded:
            record = self._survive_faults(stage, clean)
        job = self._place(stage, index, record, prev, released)
        sched = self.sched
        with maybe_span(f"datapipe.{stage.name}", category="datapipe",
                        index=index, lane=sched.lanes[sched.lane[job]],
                        scheduled_start=sched.start[job],
                        scheduled_end=sched.end[job],
                        queue_wait=sched.start[job] - sched.ready[job]):
            pass
        return job

    def _place(self, stage: Stage, index: int, record: DeferredRecord,
               prev: Optional[int], released: float) -> int:
        """Submit one stage job behind its item's previous stage."""
        not_before = self._gate(index, released) if prev is None else 0.0
        return self.sched.submit(self._lane(stage, index), record, prev,
                                 not_before, stage.tag)

    def _gate(self, index: int, released: float = 0.0) -> float:
        """Earliest start of item ``index``'s first stage: its release time
        and the bounded queue — it enters once item ``index - depth`` has
        drained (every earlier item has its terminal job by now)."""
        depth = 1 if self.degraded else self.depth
        if index < depth:
            return released
        return max(released, self.sched.end[self.terminal[index - depth]])

    def _lane(self, stage: Stage, index: int) -> str:
        return stage.lanes[0 if self.degraded else index % len(stage.lanes)]

    def finish_item(self, first: int, last: int) -> None:
        # Queue depth when this item entered the pipe: itself plus every
        # earlier item still in flight at its first job's start time.
        ends, entered = self.sched.end, self.sched.start[first] + 1e-12
        in_flight = 1 + sum(ends[job] > entered for job in self.terminal)
        self.terminal.append(last)
        self.max_in_flight = max(self.max_in_flight,
                                 min(in_flight, self.depth))

    # ------------------------------------------------------------------
    def _survive_faults(self, stage: Stage,
                        clean: DeferredRecord) -> DeferredRecord:
        """Apply the stage's fault seam to one execution's charged cost:
        crashed work lands on the CPU, respawn backoff on the job only."""
        wasted = delay = 0.0

        def waste(seconds: float, fault: FaultSpec) -> None:
            nonlocal wasted
            wasted += seconds

        def wait(seconds: float) -> None:
            nonlocal delay
            delay += seconds

        try:
            resilience.recover(stage.fault_site, clean.total, waste, wait,
                               action="respawn")
        except RecoveryExhausted as exhausted:
            resilience.degrade(exhausted)
            self.degraded = True
        if wasted <= 0 and delay <= 0:
            return clean
        busy = dict(clean.busy)
        if wasted > 0:
            cpu_name = self.machine.cpu.name
            busy[cpu_name] = busy.get(cpu_name, 0.0) + wasted
        return DeferredRecord(total=clean.total + wasted + delay, busy=busy)

    # ------------------------------------------------------------------
    def extrapolate(self, stages: Sequence[Stage], executed: int,
                    target: int) -> None:
        """Replay the remaining items symbolically at measured mean cost.

        Every tail job carries its stage's clean (pre-fault, post-scale)
        mean record, so placing it is float arithmetic alone: the loop
        below is ``submit``'s rule (a job starts when it is ready and its
        lane is free), applied to each item's chain of stages, and appends
        one start per job.  The other columns follow by array ops from the
        same ``start + total`` additions.
        """
        sched, k, n = self.sched, len(stages), target - executed
        totals = [self.stage_totals.get(stage.name, 0.0) / executed
                  for stage in stages]
        records = range(len(sched.records), len(sched.records) + k)
        sched.records.extend(
            {d: s / executed for d, s in self.stage_busy.get(stage.name,
                                                             {}).items()}
            for stage in stages)
        # An item's chain depends on its index only through the round-robin
        # lane of each stage: one row of lane codes per residue, coded in
        # the order the tail first uses them.
        period = math.lcm(*(len(stage.lanes) for stage in stages))
        lanes = np.zeros((period, k), dtype=np.int64)
        for index in range(executed, min(target, executed + period)):
            lanes[index % period] = [sched.lane_code(self._lane(stage, index))
                                     for stage in stages]
        chains = [list(zip(row, totals)) for row in lanes.tolist()]
        depth = 1 if self.degraded else self.depth
        # Each item's last end: the bounded queue gates on item ``- depth``.
        ends = [sched.end[job] for job in self.terminal]
        origin, fronts, starts = sched.origin, sched.fronts, array("d")
        for index in range(executed, target):
            ready = ends[index - depth] if index >= depth else origin
            if ready < origin:
                ready = origin
            for lane, total in chains[index % period]:
                if fronts[lane] > ready:
                    ready = fronts[lane]
                starts.append(ready)
                ready = fronts[lane] = ready + total
            ends.append(ready)

        start, total = np.frombuffer(starts), np.tile(totals, n)
        end = start + total
        # A step is ready when the one before it ends, an item's first step
        # when its gate opens (item ``- depth``'s end, or the origin).
        ready = np.empty_like(end)
        ready[1:] = end[:-1]
        ready[::k] = np.maximum(([origin] * depth + ends)[executed:target],
                                origin)
        first = len(sched.start)
        sched.extend(start=start, end=end, total=total, ready=ready,
                     lane=lanes[np.arange(executed, target) % period],
                     tag=np.tile([_intern(sched.tags, stage.tag)
                                  for stage in stages], n),
                     record=np.tile(records, n))
        self.terminal += range(first + k - 1, first + n * k, k)

    # ------------------------------------------------------------------
    def record_metrics(self, label: str, by_tag: Dict[str, Stage]) -> None:
        registry = telemetry.metrics()
        if registry is None:
            return
        labels = {"label": label} if label else {}
        registry.gauge("datapipe.queue_depth", **labels).set(self.max_in_flight)
        registry.gauge("datapipe.depth_limit", **labels).set(self.depth)
        sched = self.sched
        codes = _view(sched.tag)
        waits = _view(sched.start) - _view(sched.ready)
        for code, tag in enumerate(sched.tags):  # first-seen order
            hist = registry.histogram("datapipe.stage_wait_seconds",
                                      stage=by_tag[tag].name, **labels)
            for wait in waits[codes == code].tolist():
                hist.observe(wait)


def _attribute_phases(start: np.ndarray, end: np.ndarray, rank: np.ndarray,
                      origin: float, finish: float) -> Dict[str, float]:
    """Exclusive four-phase split of the epoch window.

    Sweeps the job intervals chronologically; each elementary segment is
    attributed to the highest-priority phase active over it (training >
    movement > sampling), matching the paper's foreground accounting; a
    job's ``rank`` is its stage's phase's index in ``_PHASE_PRIORITY``.
    Window time no job covers (only the backpressure seams between
    items) falls to "sampling", so the phases always sum to the elapsed
    epoch time.

    One array sweep; every sum that reaches a result runs left to right
    in event order (``cumsum``/``bincount``, never the pairwise ``sum``).
    """
    if finish <= origin:
        return {}
    live = end > start  # an empty job would split a segment (and its sum)
    t = np.concatenate((start[live], end[live]))
    delta = np.repeat((1, -1), len(t) // 2)
    rank = np.tile(rank[live], 2)
    # Events at one instant need no order among themselves: only the first
    # bills a segment, from the state every earlier instant left behind.
    order = np.argsort(t, kind="stable")
    t, delta, rank = np.clip(t[order], origin, finish), delta[order], rank[order]
    step = np.zeros((len(t), len(_PHASE_PRIORITY)), dtype=np.intp)
    step[np.arange(len(t)), rank] = delta
    active = (np.cumsum(step, axis=0) - step) > 0  # before each event
    width = np.diff(t, prepend=origin)
    billed = (width > 0) & active.any(axis=1)
    width = width[billed]
    seconds = np.bincount(active[billed].argmax(axis=1), weights=width,
                          minlength=len(_PHASE_PRIORITY)).tolist()
    phases = {phase: s for phase, s in zip(_PHASE_PRIORITY, seconds) if s > 0}
    covered = float(np.cumsum(np.concatenate(([0.0], width)))[-1])
    residual = (finish - origin) - covered
    if residual > 1e-12:
        phases["sampling"] = phases.get("sampling", 0.0) + residual
    return phases
