"""The bounded-prefetch pipeline executor.

``run_epoch`` pulls items from a source iterator and pushes each through
a chain of :class:`Stage`\\ s.  Real work executes item-sequentially
inside ``clock.deferred()`` (numerics and RNG order identical to the
serial schedule); the measured cost of every stage execution is then
placed on the stage's resource lane by a :class:`~repro.simtime.LaneScheduler`.
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

from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import RecoveryExhausted
from repro.hardware.machine import Machine
from repro.resilience import runtime as resilience
from repro.simtime import DeferredRecord, LaneJob, LaneScheduler
from repro.telemetry import runtime as telemetry
from repro.telemetry.runtime import maybe_span

#: Exclusive phase attribution priority: when jobs overlap on the
#: timeline, the visible phase is the paper's foreground activity.
_PHASE_PRIORITY = ("training", "data_movement", "sampling", "data_loading")


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
        self.tag = f"datapipe:{self.name}"

    def lane_for(self, index: int) -> str:
        return self.lanes[index % len(self.lanes)]


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
    jobs: List[LaneJob] = field(default_factory=list)
    lane_busy: Dict[str, float] = field(default_factory=dict)
    #: Each item's last job, in item order (symbolic tail included).
    terminal: List[LaneJob] = field(default_factory=list)
    #: Clean (pre-fault, post-scale) executed seconds per stage name.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def overlap_seconds(self) -> float:
        """Scheduled lane busy time in excess of elapsed wall time."""
        return max(0.0, sum(self.lane_busy.values()) - self.elapsed)


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
    sched = LaneScheduler(clock)
    state = _EpochState(machine=machine, sched=sched, depth=depth)
    outputs: List[Any] = []

    # islice stops *before* drawing item ``limit``: pulling it would cost
    # the source one more RNG draw / sub-graph induction per epoch.
    for index, payload in enumerate(islice(source, limit)):
        prev: Optional[LaneJob] = None
        first: Optional[LaneJob] = None
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

    def __init__(self, machine: Machine, sched: LaneScheduler, depth: int) -> None:
        self.machine = machine
        self.sched = sched
        self.depth = depth
        self.degraded = False
        self.max_in_flight = 1
        self.terminal: List[LaneJob] = []
        #: Clean (pre-fault, post-scale) per-stage sums for extrapolation.
        self.stage_totals: Dict[str, float] = {}
        self.stage_busy: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    def schedule(self, stage: Stage, index: int, rec: DeferredRecord,
                 prev: Optional[LaneJob], released: float) -> LaneJob:
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
               prev: Optional[LaneJob], released: float = 0.0) -> LaneJob:
        """Submit one stage job behind its item's previous stage.

        An item's first stage additionally waits for the item's release
        time and the bounded queue: item ``index`` enters once item
        ``index - depth`` has drained.
        """
        deps = () if prev is None else (prev,)
        not_before = 0.0
        eff_depth = 1 if self.degraded else self.depth
        if prev is None:
            not_before = released
            if index >= eff_depth and self.terminal:
                gate = min(index - eff_depth, len(self.terminal) - 1)
                not_before = max(released, self.terminal[gate].end)
        lane = stage.lanes[0] if self.degraded else stage.lane_for(index)
        return self.sched.submit(lane, record, deps=deps,
                                 not_before=not_before, tag=stage.tag)

    def finish_item(self, first: Optional[LaneJob],
                    last: Optional[LaneJob]) -> None:
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
        """Apply the stage's fault seam to one execution's charged cost."""
        injector = resilience.active()
        if injector is None:
            return clean
        site = stage.fault_site
        policy = injector.policy(site)
        cpu_name = self.machine.cpu.name
        wasted = 0.0
        delay = 0.0
        crashes = 0
        while True:
            fault = injector.arm(site)
            if fault is None or fault.kind != "crash":
                break
            crashes += 1
            injector.record_injected(site, "crash")
            wasted += clean.total * fault.severity
            delay += injector.backoff_delay(site, crashes)
            if crashes > policy.max_retries:
                if policy.degrade:
                    self.degraded = True
                    injector.record_degraded(site)
                    injector.record_recovered(site, action="degrade")
                    break
                raise RecoveryExhausted(site, crashes)
            injector.record_retry(site)
            injector.record_recovered(site, action="respawn")
        if wasted <= 0 and delay <= 0:
            return clean
        busy = dict(clean.busy)
        if wasted > 0:
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
        for index in range(executed, target):
            prev: Optional[LaneJob] = None
            for stage, mean in tail:
                prev = self._place(stage, index, mean, prev)
            self.terminal.append(prev)

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


def _attribute_phases(jobs: Sequence[LaneJob], by_tag: Dict[str, Stage],
                      origin: float, finish: float) -> Dict[str, float]:
    """Exclusive four-phase split of the epoch window.

    Sweeps the job intervals chronologically; each elementary segment is
    attributed to the highest-priority phase active over it (training >
    movement > sampling), matching the paper's foreground accounting; a
    job's phase is its stage's (``by_tag``).
    Window time no job covers (only the backpressure seams between
    items) falls to "sampling", so the phases always sum to the elapsed
    epoch time.
    """
    if finish <= origin:
        return {}
    # Phases by priority rank; ones outside the paper's four rank last,
    # in first-seen order.
    rank = {phase: i for i, phase in enumerate(_PHASE_PRIORITY)}
    events: List[Tuple[float, int, int]] = []
    for job in jobs:
        if job.end > job.start:
            r = rank.setdefault(by_tag[job.tag].phase, len(rank))
            events.append((job.start, 1, r))
            events.append((job.end, -1, r))
    events.sort()
    active = [0] * len(rank)
    seconds = [0.0] * len(rank)
    prev_t = origin
    covered = 0.0
    for t, delta, r in events:
        t = min(max(t, origin), finish)
        if t > prev_t:
            for current, count in enumerate(active):
                if count > 0:
                    seconds[current] += t - prev_t
                    covered += t - prev_t
                    break
            prev_t = t
        active[r] += delta
    phases = {phase: seconds[r] for phase, r in rank.items() if seconds[r] > 0}
    residual = (finish - origin) - covered
    if residual > 1e-12:
        phases["sampling"] = phases.get("sampling", 0.0) + residual
    return phases
