"""The bounded-prefetch pipeline executor.

``run_epoch`` pulls items from a source iterator and pushes each through
a chain of :class:`Stage`\\ s.  Real work executes item-sequentially
inside ``clock.deferred()`` (numerics and RNG order identical to the
serial schedule); the measured cost of every stage execution is then
placed on the stage's resource lane by a :class:`_LaneScheduler`.
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
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
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


@dataclass
class _LaneJob:
    """One scheduled unit of work on a :class:`_LaneScheduler` lane."""

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

    The scheduler is one-shot: ``drain()`` finalizes it.  ``run_epoch``
    builds one per epoch.
    """

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.origin = clock.now
        self.jobs: List[_LaneJob] = []
        self._fronts: Dict[str, float] = {}
        self._drained = False

    @property
    def finish(self) -> float:
        """The latest lane front (absolute time)."""
        return max(self._fronts.values()) if self._fronts else self.origin

    def submit(self, lane: str, work: DeferredRecord,
               after: Optional[_LaneJob] = None, not_before: float = 0.0,
               tag: str = "") -> _LaneJob:
        """Schedule ``work`` (measured inside ``clock.deferred()``) on
        ``lane``.

        ``after`` is the job that must finish first; ``not_before`` adds
        an absolute lower bound (e.g. bounded-queue backpressure).  The
        job keeps the record's own busy dict: nothing mutates a submitted
        record.
        """
        return self.submit_chain(((lane, work, tag),), after, not_before)

    def submit_chain(self, steps: Iterable[Tuple[str, DeferredRecord, str]],
                     after: Optional[_LaneJob] = None,
                     not_before: float = 0.0) -> _LaneJob:
        """Schedule ``(lane, record, tag)`` steps, each after the one before
        it, and return the last job (``after`` itself for no steps).

        ``after`` and ``not_before`` bound the first step as in
        :meth:`submit`.  This loop is the one placement rule: a job starts
        when it is ready and its lane is free.
        """
        if self._drained:
            raise RuntimeError("lane scheduler already drained")
        origin, jobs, fronts = self.origin, self.jobs, self._fronts
        ready = max(origin, not_before)
        job = after
        if after is not None and after.end > ready:
            ready = after.end
        for lane, record, tag in steps:
            total = record.total
            start = max(ready, fronts.get(lane, origin))
            end = fronts[lane] = start + total
            job = _LaneJob(len(jobs), lane, start, end, total, record.busy,
                           tag, ready)
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
            raise RuntimeError("lane scheduler already drained")
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
    phases: Dict[str, float]
    elapsed: float
    executed: int
    extrapolated: int
    max_in_flight: int = 1
    degraded: bool = False
    jobs: List[_LaneJob] = field(default_factory=list)
    lane_busy: Dict[str, float] = field(default_factory=dict)
    #: Each item's last job, in item order (symbolic tail included).
    terminal: List[_LaneJob] = field(default_factory=list)
    #: Clean (pre-fault, post-scale) executed seconds per stage name.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

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
    bounded queue admits it).
    """
    if depth < 1:
        raise ValueError("pipeline depth must be >= 1")
    clock = machine.clock
    sched = _LaneScheduler(clock)
    state = _EpochState(machine=machine, sched=sched, depth=depth)
    outputs: List[Any] = []

    # islice stops *before* drawing item ``limit``: pulling it would cost
    # the source one more RNG draw / sub-graph induction per epoch.
    for index, payload in enumerate(islice(source, limit)):
        prev: Optional[_LaneJob] = None
        first: Optional[_LaneJob] = None
        released = release(payload) if release is not None else 0.0
        for stage in stages:
            with clock.deferred() as rec:
                payload = stage.fn(index, payload)
            prev = state.schedule(stage, index, rec, prev, released)
            first = first or prev
            if isinstance(payload, EndItem):
                payload = payload.output
                break
        state.finish_item(first, prev)
        outputs.append(payload)

    executed = len(outputs)
    extrapolated = max(0, extrapolate_to - executed)
    if extrapolated and executed:
        state.extrapolate(stages, executed, extrapolate_to)

    lane_busy = sched.lane_busy()
    elapsed = sched.drain()
    by_tag = {stage.tag: stage for stage in stages}
    phases = _attribute_phases(sched.jobs, by_tag, sched.origin, sched.finish)
    state.record_metrics(label, by_tag)
    return EpochReport(
        outputs=outputs,
        phases=phases,
        elapsed=elapsed,
        executed=executed,
        extrapolated=extrapolated,
        max_in_flight=state.max_in_flight,
        degraded=state.degraded,
        jobs=list(sched.jobs),
        lane_busy=lane_busy,
        terminal=state.terminal,
        stage_seconds=state.stage_totals,
    )


class _EpochState:
    """Scheduling state threaded through one ``run_epoch`` call."""

    def __init__(self, machine: Machine, sched: _LaneScheduler, depth: int) -> None:
        self.machine = machine
        self.sched = sched
        self.depth = depth
        self.degraded = False
        self.max_in_flight = 1
        self.terminal: List[_LaneJob] = []
        #: Clean (pre-fault, post-scale) per-stage sums for extrapolation.
        self.stage_totals: Dict[str, float] = {}
        self.stage_busy: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def schedule(self, stage: Stage, index: int, rec: DeferredRecord,
                 prev: Optional[_LaneJob], released: float) -> _LaneJob:
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
        with maybe_span(f"datapipe.{stage.name}", category="datapipe",
                        index=index, lane=job.lane,
                        scheduled_start=job.start, scheduled_end=job.end,
                        queue_wait=job.wait):
            pass
        return job

    def _place(self, stage: Stage, index: int, record: DeferredRecord,
               prev: Optional[_LaneJob], released: float) -> _LaneJob:
        """Submit one stage job behind its item's previous stage."""
        not_before = self._gate(index, released) if prev is None else 0.0
        return self.sched.submit(self._lane(stage, index), record, prev,
                                 not_before, stage.tag)

    def _gate(self, index: int, released: float = 0.0) -> float:
        """Earliest start of item ``index``'s first stage: its release time
        and the bounded queue — it enters once item ``index - depth`` has
        drained."""
        eff_depth = 1 if self.degraded else self.depth
        if index >= eff_depth and self.terminal:
            gate = min(index - eff_depth, len(self.terminal) - 1)
            return max(released, self.terminal[gate].end)
        return released

    def _lane(self, stage: Stage, index: int) -> str:
        return stage.lanes[0 if self.degraded else index % len(stage.lanes)]

    def finish_item(self, first: Optional[_LaneJob],
                    last: Optional[_LaneJob]) -> None:
        if last is None:
            return
        # Queue depth when this item entered the pipe: itself plus every
        # earlier item still in flight at its first job's start time.
        in_flight = 1 + sum(1 for job in self.terminal
                            if job.end > first.start + 1e-12)
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

        The same jobs an executed item submits, minus what is constant
        per stage: the clean (pre-fault, post-scale) mean record is built
        once, outside the per-item loop.
        """
        tail: List[Tuple[Stage, DeferredRecord]] = []
        for stage in stages:
            busy = self.stage_busy.get(stage.name, {})
            tail.append((stage, DeferredRecord(
                total=self.stage_totals.get(stage.name, 0.0) / executed,
                busy={d: s / executed for d, s in busy.items()},
            )))
        # An item's chain depends on its index only through the round-robin
        # lane of each stage: one chain per residue, one submit per item.
        period = math.lcm(*(len(stage.lanes) for stage in stages))
        chains = [[(self._lane(stage, residue), mean, stage.tag)
                   for stage, mean in tail] for residue in range(period)]
        for index in range(executed, target):
            self.terminal.append(self.sched.submit_chain(
                chains[index % period], None, self._gate(index)))

    # ------------------------------------------------------------------
    def record_metrics(self, label: str, by_tag: Dict[str, Stage]) -> None:
        registry = telemetry.metrics()
        if registry is None:
            return
        labels = {"label": label} if label else {}
        registry.gauge("datapipe.queue_depth", **labels).set(self.max_in_flight)
        registry.gauge("datapipe.depth_limit", **labels).set(self.depth)
        waits: Dict[str, List[float]] = {}
        for job in self.sched.jobs:
            waits.setdefault(by_tag[job.tag].name, []).append(job.wait)
        for name, values in waits.items():
            hist = registry.histogram("datapipe.stage_wait_seconds",
                                      stage=name, **labels)
            for wait in values:
                hist.observe(wait)


def _attribute_phases(jobs: Sequence[_LaneJob], by_tag: Dict[str, Stage],
                      origin: float, finish: float) -> Dict[str, float]:
    """Exclusive four-phase split of the epoch window.

    Sweeps the job intervals chronologically; each elementary segment is
    attributed to the highest-priority phase active over it (training >
    movement > sampling), matching the paper's foreground accounting; a
    job's phase is its stage's (``by_tag``).
    Window time no job covers (only the backpressure seams between
    items) falls to "sampling", so the phases always sum to the elapsed
    epoch time.

    One array sweep; every sum that reaches a result runs left to right
    in event order (``cumsum``/``bincount``, never the pairwise ``sum``).
    """
    if finish <= origin:
        return {}
    rank_of = {tag: _PHASE_PRIORITY.index(stage.phase)
               for tag, stage in by_tag.items()}
    start = np.array([job.start for job in jobs])
    end = np.array([job.end for job in jobs])
    rank = np.array([rank_of[job.tag] for job in jobs], dtype=np.intp)
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
