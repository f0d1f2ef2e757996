"""The one-pass epoch bookkeeping against its scalar predecessors.

``VirtualClock.commit_schedule``, the array ``_attribute_phases``, the
vector ``busy_time`` and ``EnergyMonitor._take_samples`` replaced
job-by-job / sample-by-sample code whose results every committed baseline
pins to the last bit.  That scalar code lives on here, and only here, as
the reference: every comparison below is ``==`` on floats, list order
included.  The same strategies give two conservation laws for free.
"""

import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datapipe import run_epoch
from repro.datapipe.pipeline import (Stage, _attribute_phases, _EpochState,
                                     _LaneJob, _LaneScheduler)
from repro.hardware.machine import Machine, paper_testbed
from repro.power.monitor import EnergyMonitor
from repro.simtime import DeferredRecord, VirtualClock, _EPS
from repro.telemetry.spans import PHASES

ORACLE = settings(max_examples=60, deadline=None)


# ---------------------------------------------------------------------------
# reference implementations (the scalar code this PR's parent shipped)
# ---------------------------------------------------------------------------
class RefClock:
    """``commit_interval`` / ``_union_merge`` / scalar ``busy_time``."""

    def __init__(self):
        self.busy = []  # (key, start, end, tag) in commit order
        self.starts, self.ends, self.cumdur = {}, {}, {}

    def record(self, key, start, end, seconds, tag):
        self.busy.append((key, start, end, tag))
        self.starts.setdefault(key, []).append(start)
        self.ends.setdefault(key, []).append(end)
        cum = self.cumdur.setdefault(key, [0.0])
        cum.append(cum[-1] + seconds)

    def commit_interval(self, device, start, end, tag="", lane=""):
        if end < start:
            raise ValueError(f"interval ends before it starts ({start}..{end})")
        if end - start <= 0:
            return
        key = f"{device}@{lane}" if lane else device
        ends = self.ends.get(key)
        if ends and start < ends[-1] - _EPS:
            raise ValueError(
                f"interval [{start}, {end}) overlaps existing busy time on "
                f"{key!r} (last end {ends[-1]})")
        start = max(start, ends[-1]) if ends else start
        if end <= start:
            return
        self.record(key, start, end, end - start, tag)
        if lane:
            self.union_merge(device, start, end)

    def union_merge(self, device, start, end):
        starts = self.starts.setdefault(device, [])
        ends = self.ends.setdefault(device, [])
        cum = self.cumdur.setdefault(device, [0.0])
        if ends and start <= ends[-1] + _EPS:
            if end > ends[-1]:
                cum[-1] += end - ends[-1]
                ends[-1] = end
            return
        starts.append(start)
        ends.append(end)
        cum.append(cum[-1] + (end - start))

    def drain(self, jobs):
        commits = []
        for job in jobs:
            for device, seconds in job.busy.items():
                seconds = min(seconds, job.total)
                if seconds > 0:
                    commits.append((job.start, device, job.job_id, seconds, job))
        commits.sort()
        for start, device, _, seconds, job in commits:
            self.commit_interval(device, start, start + seconds,
                                 tag=job.tag, lane=job.lane)


def ref_busy_time(starts, ends, cum, start, end):
    """The scalar ``busy_time`` over one device's index."""
    if not starts or end <= start:
        return 0.0
    lo = bisect.bisect_right(ends, start)
    hi = bisect.bisect_left(starts, end)
    if lo >= hi:
        return 0.0
    total = cum[hi] - cum[lo]
    total -= max(0.0, start - starts[lo])
    total -= max(0.0, ends[hi - 1] - end)
    return max(0.0, total)


def clock_busy_time(clock, device, start, end):
    """``ref_busy_time`` over a real clock's index for ``device``."""
    if device not in clock._starts:
        return 0.0
    return ref_busy_time(list(clock._starts[device]), list(clock._ends[device]),
                         list(clock._cumdur[device]), start, end)


def ref_attribute_phases(jobs, by_tag, origin, finish):
    priority = ("training", "data_movement", "sampling", "data_loading")
    if finish <= origin:
        return {}
    rank = {phase: i for i, phase in enumerate(priority)}
    events = []
    for job in jobs:
        if job.end > job.start:
            r = rank[by_tag[job.tag].phase]
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


class RefMonitor:
    """``_take_sample`` / ``_on_advance`` / ``stop`` with the scalar meters,
    listening to the same clock as the monitor under test."""

    def __init__(self, machine, interval):
        self.machine, self.interval = machine, interval
        self.start_time = self.last = machine.clock.now
        self.cpu_energy = self.gpu_energy = 0.0
        self.cpu_trace, self.gpu_trace = [], []
        machine.clock.add_listener(self.on_advance)

    def energy_between(self, device, start, end):
        span = max(0.0, end - start)
        spec = device.spec
        busy = clock_busy_time(self.machine.clock, device.name, start, end)
        return spec.idle_power * span + \
            (spec.busy_power - spec.idle_power) * min(busy, span)

    def instant_power(self, at):
        gpu = self.machine.gpu
        start = max(0.0, at - self.interval)
        if at <= start:
            return gpu.spec.idle_power
        busy = clock_busy_time(self.machine.clock, gpu.name, start, at)
        frac = min(1.0, busy / (at - start))
        return gpu.spec.idle_power + frac * (gpu.spec.busy_power
                                             - gpu.spec.idle_power)

    def take_sample(self, at):
        rapl_now = self.energy_between(self.machine.cpu, self.start_time, at)
        delta_cpu = rapl_now - self.cpu_energy
        span = at - self.last
        self.cpu_energy = rapl_now
        self.cpu_trace.append((at, delta_cpu / span if span > 0 else 0.0))
        if self.machine.gpu is not None:
            gpu_watts = self.instant_power(at)
            self.gpu_energy += gpu_watts * span
            self.gpu_trace.append((at, gpu_watts))
        self.last = at

    def on_advance(self, old_now, new_now):
        next_due = self.last + self.interval
        while next_due <= new_now:
            self.take_sample(next_due)
            next_due = self.last + self.interval

    def stop(self):
        self.machine.clock.remove_listener(self.on_advance)
        if self.machine.clock.now > self.last:
            self.take_sample(self.machine.clock.now)


def ref_extrapolate(self, stages, executed, target):
    """The symbolic tail placed job by job through ``_place``."""
    tail = []
    for stage in stages:
        busy = self.stage_busy.get(stage.name, {})
        tail.append((stage, DeferredRecord(
            total=self.stage_totals.get(stage.name, 0.0) / executed,
            busy={d: s / executed for d, s in busy.items()})))
    for index in range(executed, target):
        prev = None
        for stage, mean in tail:
            prev = self._place(stage, index, mean, prev, 0.0)
        self.terminal.append(prev)


def assert_monitors_agree(report, ref):
    assert report.samples == len(ref.cpu_trace)
    assert report.cpu_energy == ref.cpu_energy
    assert report.gpu_energy == ref.gpu_energy
    assert [(s.time, s.watts) for s in report.cpu_power_trace] == ref.cpu_trace
    assert [(s.time, s.watts) for s in report.gpu_power_trace] == ref.gpu_trace


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
DEVICES = ("cpu", "gpu", "pcie")
LANES = ("a", "b", "c", "d")
#: Zero, sub-``_EPS`` (abutting lanes merge), ties, and ordinary costs.
COSTS = st.sampled_from([0.0, 2e-10, 9e-10, 1.5e-9, 0.001, 0.002, 0.004,
                         0.0625, 0.1, 0.25, 0.3]) | st.floats(1e-4, 0.5)


@st.composite
def epochs(draw):
    """A stage chain (two lanes may share a device), per-item costs, depth,
    release times (some later than the bounded-queue gate) and how many
    items execute before the symbolic tail takes over."""
    n_stages = draw(st.integers(1, 4))
    stages = [
        dict(phase=draw(st.sampled_from(PHASES)),
             lanes=tuple(draw(st.lists(st.sampled_from(LANES), min_size=1,
                                       max_size=2, unique=True))),
             device=draw(st.sampled_from(DEVICES)),
             # A second device busy for part of the job (or longer than it).
             helper=draw(st.none() | st.sampled_from(DEVICES)),
             helper_share=draw(st.sampled_from([0.5, 1.0, 1.5])))
        for _ in range(n_stages)
    ]
    executed = draw(st.integers(1, 6))
    costs = draw(st.lists(st.lists(COSTS, min_size=n_stages, max_size=n_stages),
                          min_size=executed, max_size=executed))
    releases = draw(st.none() | st.lists(st.sampled_from([0.0, 0.05, 0.4, 2.0]),
                                         min_size=executed, max_size=executed))
    return dict(stages=stages, costs=costs, releases=releases,
                depth=draw(st.integers(1, 4)),
                tail=draw(st.integers(0, 12)),
                origin=draw(st.sampled_from([0.0, 0.03, 1.7])))


def run_drawn_epoch(machine, spec):
    """Run ``spec`` through ``run_epoch`` on ``machine``; returns the report
    and the stages by tag."""
    clock = machine.clock

    def make_fn(position, decl):
        def fn(index, payload):
            cost = spec["costs"][index][position]
            clock.occupy(decl["device"], cost, tag=f"k{position}")
            if decl["helper"] and decl["helper"] != decl["device"]:
                # Concurrent busy seconds on a second device: no extra time.
                clock.credit_busy({decl["helper"]: cost * decl["helper_share"]})
            return payload
        return fn

    stages = [Stage(f"s{i}", decl["phase"], fn=make_fn(i, decl),
                    lanes=decl["lanes"])
              for i, decl in enumerate(spec["stages"])]
    releases = spec["releases"]
    executed = len(spec["costs"])
    report = run_epoch(
        machine, stages, range(executed), spec["depth"],
        extrapolate_to=executed + spec["tail"],
        release=None if releases is None
        else (lambda item: clock.now + releases[item]))
    return report, {stage.tag: stage for stage in stages}


def index_of(clock):
    return ({k: list(v) for k, v in clock._starts.items()},
            {k: list(v) for k, v in clock._ends.items()},
            {k: list(v) for k, v in clock._cumdur.items()})


# ---------------------------------------------------------------------------
# commit_schedule, phases, conservation
# ---------------------------------------------------------------------------
@ORACLE
@given(spec=epochs())
def test_epoch_commit_and_phases_equal_the_scalar_code(spec):
    machine = paper_testbed()
    clock = machine.clock
    ref = RefClock()
    if spec["origin"]:
        # History before the epoch, on a device the lanes also use.
        clock.occupy("cpu", spec["origin"], tag="before")
        ref.record("cpu", 0.0, spec["origin"], spec["origin"], "before")
    origin = clock.now
    report, by_tag = run_drawn_epoch(machine, spec)
    finish = clock.now

    ref.drain(report.jobs)
    assert index_of(clock) == (ref.starts, ref.ends, ref.cumdur)
    assert [(iv.device, iv.start, iv.end, iv.tag)
            for iv in clock.busy_intervals()] == ref.busy

    expected = ref_attribute_phases(report.jobs, by_tag, origin, finish)
    assert list(report.phases.items()) == list(expected.items())

    # One chain per item places the tail exactly where job-by-job does.
    twin = paper_testbed()
    if spec["origin"]:
        twin.clock.occupy("cpu", spec["origin"], tag="before")
    chained, _EpochState.extrapolate = _EpochState.extrapolate, ref_extrapolate
    try:
        by_job, _ = run_drawn_epoch(twin, spec)
    finally:
        _EpochState.extrapolate = chained
    assert by_job.jobs == report.jobs and by_job.terminal == report.terminal

    # Conservation: the exclusive phases tile the epoch window ...
    assert sum(report.phases.values()) == pytest.approx(finish - origin,
                                                        abs=1e-12)
    # ... and a device is busy exactly while any of its lanes is (the union
    # absorbs gaps up to _EPS between abutting lane intervals).
    for device in DEVICES:
        lanes = sorted((iv.start, iv.end) for iv in clock.busy_intervals()
                       if iv.device.startswith(f"{device}@"))
        measure, reach = 0.0, origin
        for start, end in lanes:
            measure += max(0.0, end - max(start, reach))
            reach = max(reach, end)
        assert clock.busy_time(device, origin, finish) == pytest.approx(
            measure, abs=(len(lanes) + 1) * _EPS)


@ORACLE
@given(spec=epochs(), windows=st.lists(
    st.tuples(st.floats(-0.5, 4.0), st.floats(-0.5, 4.0)), min_size=1,
    max_size=12))
def test_vector_busy_time_equals_the_scalar_loop(spec, windows):
    machine = paper_testbed()
    clock = machine.clock
    run_drawn_epoch(machine, spec)
    # Interval endpoints themselves are the interesting windows.
    edges = [t for iv in clock.busy_intervals()[:5] for t in (iv.start, iv.end)]
    windows = windows + [(s, e) for s in edges for e in edges] + \
        [(0.0, clock.now)]
    starts = np.array([w[0] for w in windows])
    ends = np.array([w[1] for w in windows])
    for device in DEVICES + ("idle",):
        expected = [clock_busy_time(clock, device, s, e) for s, e in windows]
        assert clock.busy_time(device, starts, ends).tolist() == expected
        # One start against many ends (the RAPL read) ...
        assert clock.busy_time(device, 0.01, ends).tolist() == \
            [clock_busy_time(clock, device, 0.01, e) for e in ends.tolist()]
        # ... and the plain-float form.
        for (s, e), want in zip(windows, expected):
            got = clock.busy_time(device, s, e)
            assert type(got) is float and got == want


# ---------------------------------------------------------------------------
# the energy monitor
# ---------------------------------------------------------------------------
#: Binary fractions land advances exactly on sample boundaries.
INTERVALS = st.sampled_from([0.1, 0.25, 0.0625, 0.03, 1.0])
STEPS = st.sampled_from([0.0, 0.001, 0.02, 0.0625, 0.1, 0.125, 0.25, 0.5,
                         1.0, 3.7]) | st.floats(1e-4, 2.0)


@ORACLE
@given(interval=INTERVALS, head=st.sampled_from([0.0, 0.25, 0.31]),
       ops=st.lists(st.tuples(st.sampled_from(["cpu", "gpu", "idle", "both"]),
                              STEPS), min_size=0, max_size=25),
       has_gpu=st.booleans())
def test_monitor_on_a_serial_clock_equals_the_scalar_sampler(
        interval, head, ops, has_gpu):
    machine = paper_testbed() if has_gpu else Machine(gpu_spec=None)
    clock = machine.clock
    cpu = machine.cpu.name
    gpu = machine.gpu.name if has_gpu else "no-gpu"
    if head:
        clock.occupy(gpu, head)  # monitor start > 0, GPU busy in the past
    monitor = EnergyMonitor(machine, interval=interval)
    monitor.start()
    ref = RefMonitor(machine, interval)
    for kind, dt in ops:
        if kind == "idle":
            clock.advance(dt)
        elif kind == "both":
            clock.occupy_parallel({cpu: dt, gpu: dt / 2})
        else:
            clock.occupy(cpu if kind == "cpu" else gpu, dt)
    report = monitor.stop()
    ref.stop()
    assert_monitors_agree(report, ref)
    assert report.duration == clock.now - ref.start_time


@ORACLE
@given(spec=epochs(), interval=INTERVALS, has_gpu=st.booleans())
def test_monitor_over_a_lane_schedule_equals_the_scalar_sampler(
        spec, interval, has_gpu):
    """One drain advances over many boundaries with future-dated busy
    intervals already committed; the lanes' devices are the machine's."""
    machine = paper_testbed() if has_gpu else Machine(gpu_spec=None)
    names = {"cpu": machine.cpu.name, "pcie": "pcie",
             "gpu": machine.gpu.name if has_gpu else machine.cpu.name}
    spec = dict(spec, stages=[
        dict(decl, device=names[decl["device"]],
             helper=names.get(decl["helper"])) for decl in spec["stages"]])
    clock = machine.clock
    clock.advance(spec["origin"])
    monitor = EnergyMonitor(machine, interval=interval)
    monitor.start()
    ref = RefMonitor(machine, interval)
    for _ in range(2):  # two epochs: the second starts mid-interval
        run_drawn_epoch(machine, spec)
    report = monitor.stop()
    ref.stop()
    assert_monitors_agree(report, ref)


def test_first_partial_sample_clips_its_window_at_time_zero():
    # stop() before the first boundary: at < window, NVML start clipped at 0.
    machine = paper_testbed()
    monitor = EnergyMonitor(machine, interval=0.1)
    monitor.start()
    ref = RefMonitor(machine, 0.1)
    machine.clock.occupy(machine.gpu.name, 0.04)
    report = monitor.stop()
    ref.stop()
    assert report.samples == 1
    assert_monitors_agree(report, ref)


def test_advance_ending_exactly_on_a_boundary_samples_it():
    machine = paper_testbed()
    monitor = EnergyMonitor(machine, interval=0.25)
    monitor.start()
    machine.clock.advance(0.75)  # boundaries 0.25, 0.5 and 0.75 inclusive
    assert monitor._samples == 3
    assert monitor.stop().samples == 3  # nothing partial left over


# ---------------------------------------------------------------------------
# direct unit tests
# ---------------------------------------------------------------------------
def test_out_of_order_commit_names_the_key():
    clock = VirtualClock()
    clock.commit_schedule([(1.0, "gpu", "train", 1.0, "t")])
    with pytest.raises(ValueError, match=r"overlaps.*'gpu@train'"):
        clock.commit_schedule([(1.5, "gpu", "train", 1.0, "t")])
    # Another lane of the same device may overlap: that is what lanes are.
    clock.commit_schedule([(1.5, "gpu", "copy", 1.0, "t")])
    assert clock.busy_time("gpu", 0.0, 3.0) == 1.5


def test_commit_within_eps_is_clipped_not_rejected():
    clock = VirtualClock()
    clock.commit_schedule([(0.0, "cpu", "w", 1.0, ""),
                           (1.0 - _EPS / 2, "cpu", "w", 1.0, "")])
    second = clock.busy_intervals("cpu@w")[1]
    assert second.start == 1.0 and second.end == 1.0 - _EPS / 2 + 1.0


def test_negative_interval_rejected():
    with pytest.raises(ValueError, match="ends before it starts"):
        VirtualClock().commit_schedule([(1.0, "cpu", "w", -0.5, "")])


def test_busy_intervals_materialise_equal_objects_in_commit_order():
    clock = VirtualClock()
    clock.occupy("cpu", 1.0, tag="a")
    clock.commit_schedule([(2.0, "gpu", "train", 0.5, "b")])
    first, second = clock.busy_intervals()
    assert (first.device, first.tag, first.duration) == ("cpu", "a", 1.0)
    assert (second.device, second.start, second.end) == ("gpu@train", 2.0, 2.5)
    assert clock.busy_intervals() == clock.busy_intervals()
    assert clock.busy_intervals("gpu@train") == [second]


def test_lane_job_wait_is_time_queued_behind_its_lane():
    clock = VirtualClock()
    sched = _LaneScheduler(clock)
    first = sched.submit("gpu", DeferredRecord(total=2.0, busy={"gpu": 2.0}))
    copy = sched.submit("pcie", DeferredRecord(0.5))
    # Ready when the copy lands (0.5), but the GPU lane is busy until 2.0.
    second = sched.submit("gpu", DeferredRecord(1.0), copy, tag="train")
    assert isinstance(second, _LaneJob) and second.tag == "train"
    assert (second.ready, second.start, second.end) == (0.5, 2.0, 3.0)
    assert second.wait == 1.5 and first.wait == 0.0
    # ``not_before`` later than the predecessor wins.
    late = sched.submit("pcie", DeferredRecord(0.25), copy, 4.0)
    assert (late.ready, late.start, late.wait) == (4.0, 4.0, 0.0)
    assert sched.drain() == 4.25 and clock.now == 4.25


@pytest.mark.parametrize("use", [
    lambda s: s.submit("gpu", DeferredRecord(1.0)),
    lambda s: s.submit_chain([("gpu", DeferredRecord(1.0), "")]),
    lambda s: s.drain(),
])
def test_a_drained_scheduler_is_finished(use):
    clock = VirtualClock()
    sched = _LaneScheduler(clock)
    sched.submit("gpu", DeferredRecord(1.0))
    assert sched.drain() == 1.0
    with pytest.raises(RuntimeError, match="already drained"):
        use(sched)
    assert clock.now == 1.0 and len(sched.jobs) == 1


def test_a_chain_is_its_steps_submitted_one_after_another():
    steps = [("cpu", DeferredRecord(0.5, {"cpu": 0.5}), "a"),
             ("pcie", DeferredRecord(0.0), "b"),
             ("gpu", DeferredRecord(0.25, {"gpu": 0.2}), "c")]
    chained, single = _LaneScheduler(VirtualClock()), _LaneScheduler(VirtualClock())
    for sched in (chained, single):
        sched.submit("gpu", DeferredRecord(1.0))  # busy until 1.0
    head = chained.jobs[0]
    last = chained.submit_chain(steps, head, 0.75)
    prev = single.jobs[0]
    for position, (lane, record, tag) in enumerate(steps):
        prev = single.submit(lane, record, prev, 0.0 if position else 0.75, tag)
    assert chained.jobs == single.jobs and last == prev == chained.jobs[-1]
    assert [job.ready for job in chained.jobs[1:]] == [1.0, 1.5, 1.5]
    assert chained.submit_chain([], head) is head


def test_phases_of_an_epoch_without_positive_jobs():
    stage = Stage("s", "training", fn=lambda i, p: p, lanes=("a",))
    job = _LaneJob(0, "a", 1.0, 1.0, 0.0, {}, stage.tag, 1.0)
    for finish in (1.0, 1.0 + 1e-13, 2.0):
        assert _attribute_phases([job], {stage.tag: stage}, 0.5, finish) == \
            ref_attribute_phases([job], {stage.tag: stage}, 0.5, finish)
    assert _attribute_phases([job], {stage.tag: stage}, 0.5, 0.5) == {}
