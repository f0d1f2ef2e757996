"""Tests for the composable datapipe: config, staging, scheduler, trainer.

The load-bearing invariants: ``pipeline=off`` is a spelling of
``depth-1``, depth-1 *is* the serial schedule (its epoch lasts exactly
the sum of its stage costs), deeper queues only ever help, numerics are
bit-identical at every depth, staging buffers live in the memory ledger,
and the ``sampler.worker`` fault seam degrades the pipe to one lane with
one batch in flight.
"""

import numpy as np
import pytest

from repro.datapipe import EndItem, PipelineConfig, parse_pipeline, run_epoch
from repro.datapipe.pipeline import Stage
from repro.datapipe.staging import StagingPool
from repro.errors import BenchmarkError, OutOfMemoryError, RecoveryExhausted
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.models.graphsage import build_graphsage
from repro.models import inference as inference_module
from repro.models import trainer as trainer_module
from repro.models.trainer import MiniBatchTrainer, TrainConfig
from repro.resilience import runtime as resilience
from repro.resilience.plan import FaultPlan, FaultSpec, RecoveryPolicy


def make_trainer(pipeline="off", placement="cpugpu", scale=0.3, reps=4,
                 epochs=1, num_workers=0, seed=0):
    fw = get_framework("dglite")
    machine = paper_testbed()
    fgraph = fw.load("ppi", machine, scale=scale)
    sampler = fw.neighbor_sampler(fgraph, fanouts=(4, 4), batch_size=64,
                                  mode="cpu", seed=seed)
    net = build_graphsage(fw, fgraph, hidden=16, seed=seed)
    config = TrainConfig(epochs=epochs, placement=placement,
                         representative_batches=reps, seed=seed,
                         pipeline=pipeline, num_workers=num_workers)
    trainer = MiniBatchTrainer(fw, fgraph, sampler, net, config)
    return trainer, machine, net


def spy_on_run_epoch(monkeypatch, module):
    """Collect the :class:`EpochReport` of every epoch ``module`` runs."""
    reports = []

    def spy(*args, **kwargs):
        reports.append(run_epoch(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(module, "run_epoch", spy)
    return reports


def tagged(report, tag):
    """The indexes of ``report``'s jobs tagged ``tag``, in job order."""
    sched = report.schedule
    return [job for job, code in enumerate(sched.tag)
            if sched.tags[code] == tag]


def overlap_seconds(report):
    """Scheduled lane busy time in excess of elapsed time."""
    return max(0.0, sum(report.lane_busy.values()) - report.elapsed)


def assert_serial_sum(report):
    """The depth-1 conservation law for one epoch: nothing overlaps, so
    the epoch lasts exactly the executed plus extrapolated stage costs,
    and the exclusive phases add up to it."""
    sched = report.schedule
    assert report.max_in_flight == 1
    assert overlap_seconds(report) == pytest.approx(0.0, abs=1e-12)
    assert report.elapsed == pytest.approx(sum(sched.total), rel=1e-12)
    assert sum(report.phases.values()) == pytest.approx(report.elapsed,
                                                        rel=1e-12)
    for end, start in zip(sched.end, sched.start[1:]):
        assert start == pytest.approx(end, abs=1e-12)


def run_one(pipeline, **kwargs):
    trainer, machine, net = make_trainer(pipeline, **kwargs)
    result = trainer.run()
    params = np.concatenate([p.data.ravel() for p in net.parameters()])
    return result, machine.clock.now, params


# ---------------------------------------------------------------------------
# the pipeline knob
# ---------------------------------------------------------------------------
class TestPipelineConfig:
    def test_parse_off_and_depths(self):
        assert parse_pipeline("off") == PipelineConfig(1)
        assert parse_pipeline("depth-1") == PipelineConfig(1)
        assert parse_pipeline("depth-8").depth == 8

    @pytest.mark.parametrize("spec", ["", "on", "depth-0", "depth--1",
                                      "depth-", "depth-x", "2"])
    def test_parse_rejects_garbage(self, spec):
        with pytest.raises(BenchmarkError):
            parse_pipeline(spec)

    def test_negative_depth_rejected(self):
        for depth in (0, -1):
            with pytest.raises(BenchmarkError):
                PipelineConfig(depth)

    def test_pipeline_excludes_prefetch(self):
        # prefetch *is* a depth declaration (two in flight on a loader
        # lane); an explicit depth-N next to it is a contradiction.
        for spec in ("depth-1", "depth-2"):
            with pytest.raises(BenchmarkError, match="prefetch"):
                TrainConfig(placement="cpugpu", pipeline=spec, prefetch=True)
        TrainConfig(placement="cpugpu", pipeline="off", prefetch=True)

    def test_pipeline_excludes_gpu_sampling(self):
        for placement in ("gpu", "uvagpu"):
            with pytest.raises(BenchmarkError, match="sample on-device"):
                TrainConfig(placement=placement, pipeline="depth-2")
            # One batch in flight is no overlap: both spellings pass.
            for spec in ("off", "depth-1"):
                assert TrainConfig(placement=placement,
                                   pipeline=spec).pipeline_depth == 1

    def test_trainconfig_depth_property(self):
        assert TrainConfig(pipeline="off").pipeline_depth == 1
        assert TrainConfig(pipeline="depth-3").pipeline_depth == 3


# ---------------------------------------------------------------------------
# charged-time invariants
# ---------------------------------------------------------------------------
class TestChargedTime:
    def test_depth1_equals_serial(self, monkeypatch):
        """Depth-1 is the serial schedule, as a law rather than against
        a second implementation: every epoch lasts the sum of its stage
        costs — 4 stages x (executed + extrapolated) batches — and the
        run's phases add up to the clock time its epochs took."""
        reports = spy_on_run_epoch(monkeypatch, trainer_module)
        trainer, machine, _ = make_trainer("off", reps=3, epochs=2)
        started = machine.clock.now
        result = trainer.run()
        assert len(reports) == 2
        for report in reports:
            assert report.executed == 3
            assert report.executed + report.extrapolated \
                == result.batches_per_epoch
            total = report.schedule.total
            assert len(total) == 4 * result.batches_per_epoch
            assert_serial_sum(report)
            # The symbolic tail is billed at the executed per-stage mean.
            head, tail = sum(total[:4 * 3]), sum(total[4 * 3:])
            assert tail == pytest.approx(head / 3 * report.extrapolated,
                                         rel=1e-12)
        assert sum(result.phases.values()) == pytest.approx(
            machine.clock.now - started, rel=1e-12)

    def test_depth_monotonic(self):
        times = {d: run_one(f"depth-{d}")[1] for d in (1, 2, 4)}
        assert times[2] < times[1]
        assert times[4] < times[1]
        # Deeper queues are monotone up to the pipeline-fill transient:
        # the first batch's sample job is on the critical path before any
        # overlap exists, and wider worker pools inflate per-job cost
        # (sublinear scaling), so allow that warmup sliver.
        assert times[4] <= times[2] * 1.005

    def test_numerics_bit_identical_at_depth(self):
        r_off, _, p_off = run_one("off", epochs=2)
        r_d4, t_d4, p_d4 = run_one("depth-4", epochs=2)
        assert r_d4.losses == r_off.losses
        np.testing.assert_array_equal(p_d4, p_off)

    def test_seeded_determinism(self):
        r_a, t_a, p_a = run_one("depth-4")
        r_b, t_b, p_b = run_one("depth-4")
        assert t_a == t_b
        assert r_a.losses == r_b.losses
        np.testing.assert_array_equal(p_a, p_b)
        assert r_a.phases == r_b.phases

    def test_pipelined_cpugpu_faster_than_serial(self):
        _, t_off, _ = run_one("off", scale=0.6)
        _, t_d4, _ = run_one("depth-4", scale=0.6)
        assert t_off / t_d4 >= 1.3

    def test_phases_cover_epoch(self):
        # Setup (graph load, model H2D) is charged outside the profiler
        # in this harness; that unattributed sliver must be identical in
        # both modes, i.e. the pipeline's phase split covers its epochs
        # exactly as the serial schedule covers its own.
        r_off, t_off, _ = run_one("off")
        r_d4, t_d4, _ = run_one("depth-4")
        setup_off = t_off - sum(r_off.phases.values())
        setup_d4 = t_d4 - sum(r_d4.phases.values())
        assert setup_d4 == pytest.approx(setup_off, rel=1e-9)

    def test_extrapolation_scales_epoch(self):
        # Fewer representative batches must still bill the full epoch:
        # extrapolated items replay through the same lane schedule.
        _, t_full, _ = run_one("depth-4", reps=10)
        _, t_reps, _ = run_one("depth-4", reps=3)
        assert t_reps == pytest.approx(t_full, rel=0.35)


# ---------------------------------------------------------------------------
# the executor: backpressure, reports
# ---------------------------------------------------------------------------
def _two_stage(machine, sample_s=0.02, train_s=0.01, workers=1):
    clock = machine.clock

    def sample(i, x):
        clock.occupy(machine.cpu.name, sample_s, tag="sample")
        return x

    def train(i, x):
        clock.occupy("gpu", train_s, tag="train")
        return x * 10

    return [
        Stage("sample", "sampling", fn=sample,
              lanes=tuple(f"worker/{w}" for w in range(workers))),
        Stage("train", "training", fn=train, lanes=("train",)),
    ]


class TestRunEpoch:
    def test_stage_phase_must_be_one_of_the_four(self):
        # A typo used to become a silent fifth key of the breakdown.
        with pytest.raises(ValueError, match=r"'train'.*data_loading"):
            Stage("train", "train", fn=lambda i, x: x, lanes=("train",))

    def test_depth_bounds_in_flight(self):
        machine = paper_testbed()
        report = run_epoch(machine, _two_stage(machine, workers=4),
                           range(8), depth=2)
        assert report.max_in_flight <= 2
        assert report.outputs == [i * 10 for i in range(8)]

    def test_backpressure_gates_first_stage(self):
        machine = paper_testbed()
        report = run_epoch(machine, _two_stage(machine, workers=8),
                           range(6), depth=2)
        sched = report.schedule
        jobs = tagged(report, "datapipe:sample")
        done = tagged(report, "datapipe:train")
        for i in range(2, 6):
            # Item i's first stage cannot start before item i-2 drained.
            assert sched.start[jobs[i]] >= sched.end[done[i - 2]] - 1e-12

    def test_overlap_reported(self):
        machine = paper_testbed()
        report = run_epoch(machine, _two_stage(machine, workers=1),
                           range(6), depth=3)
        assert overlap_seconds(report) > 0
        serial = 6 * 0.03
        assert report.elapsed < serial - 1e-9

    def test_depth1_is_serial_sum(self):
        machine = paper_testbed()
        report = run_epoch(machine, _two_stage(machine, workers=4),
                           range(5), depth=1)
        assert report.elapsed == pytest.approx(5 * 0.03, abs=1e-12)
        assert overlap_seconds(report) == pytest.approx(0.0, abs=1e-12)
        assert report.max_in_flight == 1

    def test_bad_depth_rejected(self):
        machine = paper_testbed()
        with pytest.raises(ValueError):
            run_epoch(machine, _two_stage(machine), range(2), depth=0)

    def test_stages_that_share_a_name_are_rejected(self):
        # Their tags and stage totals would merge: the tail would bill each
        # at the pair's summed mean (30 s here, not 18 s) and every phase
        # would go to the later stage.
        machine = paper_testbed()

        def cost(seconds):
            def fn(i, x):
                machine.clock.occupy(machine.cpu.name, seconds)
                return x
            return fn

        one, two = (Stage("s", phase, fn=cost(seconds), lanes=(lane,))
                    for phase, seconds, lane in (("sampling", 1.0, "a"),
                                                 ("training", 2.0, "b")))
        with pytest.raises(ValueError, match="stage 's'"):
            run_epoch(machine, [one, two], range(2), depth=1,
                      extrapolate_to=6)
        assert machine.clock.now == 0.0
        two = Stage("t", "training", fn=cost(2.0), lanes=("b",))
        report = run_epoch(machine, [one, two], range(2), depth=1,
                           extrapolate_to=6)
        assert report.elapsed == 18.0
        assert report.phases == {"training": 12.0, "sampling": 6.0}

    @pytest.mark.parametrize("lanes", [(), ("a", "")])
    def test_a_stage_needs_named_lanes(self, lanes):
        with pytest.raises(ValueError, match="stage 'fetch'.*lane"):
            Stage("fetch", "sampling", fn=lambda i, x: x, lanes=lanes)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"),
                                       float("inf")])
    def test_a_stage_scale_is_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="stage 'sample'.*scale"):
            Stage("sample", "sampling", fn=lambda i, x: x, lanes=("a",),
                  scale=scale)

    def test_an_epoch_needs_a_stage(self):
        with pytest.raises(ValueError, match="at least one stage"):
            run_epoch(paper_testbed(), [], range(2), depth=1)

    def test_source_is_pulled_exactly_limit_times(self):
        """Drawing item ``limit`` just to drop it costs a sampler an RNG
        draw (GraphSAINT) or a sub-graph induction (ClusterGCN)."""
        pulled = []

        def source():
            for i in range(10):
                pulled.append(i)
                yield i

        machine = paper_testbed()
        report = run_epoch(machine, _two_stage(machine), source(), depth=2,
                           limit=3, extrapolate_to=10)
        assert pulled == [0, 1, 2]
        assert (report.executed, report.extrapolated) == (3, 7)

    def test_extrapolated_tail_is_billed_at_the_mean(self):
        machine = paper_testbed()
        report = run_epoch(machine, _two_stage(machine), range(8), depth=1,
                           limit=2, extrapolate_to=8)
        assert_serial_sum(report)
        assert report.elapsed == pytest.approx(8 * 0.03, rel=1e-12)
        assert report.phases["sampling"] == pytest.approx(8 * 0.02, rel=1e-12)
        assert report.phases["training"] == pytest.approx(8 * 0.01, rel=1e-12)

    def test_lane_busy_and_phase_split(self):
        machine = paper_testbed()
        report = run_epoch(machine, _two_stage(machine, workers=2),
                           range(4), depth=2)
        assert set(report.lane_busy) == {"worker/0", "worker/1", "train"}
        assert report.phases["training"] > 0
        assert report.phases["sampling"] > 0
        assert sum(report.phases.values()) == pytest.approx(report.elapsed)

    def test_release_time_holds_back_the_first_stage(self):
        """An item starts at max(release, bounded-queue gate) — serving's
        micro-batches are released at their close time."""
        machine = paper_testbed()
        t0 = machine.clock.now
        releases = [t0, t0 + 0.5, t0 + 0.51, t0 + 0.52]
        report = run_epoch(machine, _two_stage(machine), releases, depth=1,
                           release=lambda item: item)
        sched = report.schedule
        firsts = tagged(report, "datapipe:sample")
        start = [sched.start[job] for job in firsts]
        assert start[0] == t0
        assert start[1] == releases[1]  # idle pipe: release decides
        # Items 2 and 3 were released while item 1 was in flight: at
        # depth 1 they queue behind the previous item's last job.
        assert start[2] == report.item_ends[1] > releases[2]
        assert start[3] == report.item_ends[2] > releases[3]
        # Gated, not queued behind its lane.
        assert start[2] - sched.ready[firsts[2]] == 0.0

    def test_end_item_skips_the_remaining_stages(self):
        machine = paper_testbed()
        stages = _two_stage(machine)
        sample = stages[0].fn
        stages[0].fn = lambda i, x: (EndItem("dropped") if i == 1
                                     else sample(i, x))
        report = run_epoch(machine, stages, range(3), depth=2)
        assert report.outputs == [0, "dropped", 20]
        sched = report.schedule
        assert [sched.tags[code] for code in sched.tag] == [
            "datapipe:sample", "datapipe:train", "datapipe:sample",
            "datapipe:sample", "datapipe:train"]
        # Item 1's last job is its sample.
        assert report.item_ends == [sched.end[1], sched.end[2], sched.end[4]]
        # Clean per-stage sums count what actually ran.
        assert report.stage_seconds == {
            "sample": pytest.approx(2 * 0.02), "train": pytest.approx(2 * 0.01)}
        # The bounded queue gates on the early exit like on any last job.
        assert sched.start[3] >= report.item_ends[0]


# ---------------------------------------------------------------------------
# staging buffers in the memory ledger
# ---------------------------------------------------------------------------
class TestStagingPool:
    def test_depth_bounds_live_buffers(self):
        machine = paper_testbed()
        pool = StagingPool(machine, depth=2)
        for i in range(6):
            pool.stage_host(i, 1024)
        # current + (depth - 1) in flight
        assert pool.live_host_bytes <= 3 * 1024
        pool.close()
        assert pool.live_host_bytes == 0

    def test_ledger_accounts_staging(self):
        machine = paper_testbed()
        before = machine.cpu.memory.in_use
        pool = StagingPool(machine, depth=2)
        pool.stage_host(0, 4096)
        assert machine.cpu.memory.in_use == before + 4096
        pool.close()
        assert machine.cpu.memory.in_use == before

    def test_gpu_landing_accounted(self):
        machine = paper_testbed()
        before = machine.gpu.memory.in_use
        pool = StagingPool(machine, depth=2)
        pool.stage_gpu(0, 2048)
        assert machine.gpu.memory.in_use == before + 2048
        pool.close()
        assert machine.gpu.memory.in_use == before

    def test_oom_is_the_peak_assertion(self):
        machine = paper_testbed()
        pool = StagingPool(machine, depth=4)
        huge = machine.gpu.memory.capacity  # bytes; depth x huge must blow
        with pytest.raises(OutOfMemoryError):
            for i in range(4):
                pool.stage_gpu(i, huge * 0.6)
        pool.close()

    def test_bad_depth_rejected(self):
        machine = paper_testbed()
        with pytest.raises(ValueError):
            StagingPool(machine, depth=0)


# ---------------------------------------------------------------------------
# fault-seam interplay
# ---------------------------------------------------------------------------
def _plan(*faults, policies=None):
    return FaultPlan(seed=0, faults=tuple(faults), policies=policies or {})


class TestFaultSeam:
    def test_crash_respawns_inside_pipeline(self):
        trainer, machine, _ = make_trainer("depth-4")
        plan = _plan(
            FaultSpec(site="sampler.worker", kind="crash", at=1,
                      severity=0.5),
            policies={"sampler.worker": RecoveryPolicy(backoff=0.01)},
        )
        with resilience.session(plan) as injector:
            result = trainer.run()
        summary = injector.summary()
        assert summary["injected"] == 1
        assert summary["recovered"] == 1
        assert summary["degraded"] == 0
        assert not trainer._workers_degraded
        assert result.losses

    def test_crash_costs_time(self):
        _, t_clean, _ = run_one("depth-4")
        trainer, machine, _ = make_trainer("depth-4")
        plan = _plan(
            FaultSpec(site="sampler.worker", kind="crash", at=1,
                      severity=1.0),
            policies={"sampler.worker": RecoveryPolicy(backoff=0.02)},
        )
        with resilience.session(plan):
            trainer.run()
        assert machine.clock.now > t_clean

    def test_repeated_crashes_drain_queue_then_degrade(self):
        # The pool dies while later items are already queued behind the
        # crashed worker: the pipeline must finish every item (drained on
        # a single lane at depth-1) and numerics must not change.
        r_clean, _, p_clean = run_one("depth-4", reps=6)
        trainer, machine, net = make_trainer("depth-4", reps=6)
        plan = _plan(
            FaultSpec(site="sampler.worker", kind="crash", count=99),
            policies={"sampler.worker": RecoveryPolicy(max_retries=1,
                                                       backoff=0.0,
                                                       degrade=True)},
        )
        with resilience.session(plan) as injector:
            result = trainer.run()
        summary = injector.summary()
        assert trainer._workers_degraded
        assert summary["degraded"] == 1
        # Every queued batch still trained, in order, bit-identically.
        assert result.losses == r_clean.losses
        params = np.concatenate([p.data.ravel() for p in net.parameters()])
        np.testing.assert_array_equal(params, p_clean)

    def test_exhausted_retries_raise_without_degrade(self):
        trainer, machine, _ = make_trainer("depth-2")
        plan = _plan(
            FaultSpec(site="sampler.worker", kind="crash", count=99),
            policies={"sampler.worker": RecoveryPolicy(max_retries=1,
                                                       backoff=0.0,
                                                       degrade=False)},
        )
        with resilience.session(plan):
            with pytest.raises(RecoveryExhausted):
                trainer.run()


# ---------------------------------------------------------------------------
# layerwise inference on the pipe
# ---------------------------------------------------------------------------
class TestPipelinedInference:
    def _run(self, pipeline, device="gpu"):
        from repro.models.inference import layerwise_inference

        fw = get_framework("dglite")
        machine = paper_testbed()
        fgraph = fw.load("ppi", machine, scale=0.3)
        net = build_graphsage(fw, fgraph, hidden=16, seed=0)
        res = layerwise_inference(fw, fgraph, net, device=device,
                                  batch_nodes=4096, pipeline=pipeline)
        return res, machine.clock.now

    def test_logits_bit_identical(self):
        r_off, _ = self._run("off")
        r_d3, _ = self._run("depth-3")
        np.testing.assert_array_equal(r_off.logits, r_d3.logits)

    def test_depth1_equals_serial(self, monkeypatch):
        """One chunk in flight: each layer lasts the sum of its chunks'
        fetch -> h2d -> compute -> d2h costs, and the inference phases
        add up to those layers."""
        reports = spy_on_run_epoch(monkeypatch, inference_module)
        result, _ = self._run("off")
        assert len(reports) == 2  # one barrier-separated pipe per layer
        for report in reports:
            assert report.extrapolated == 0
            assert len(report.schedule.start) == 4 * report.executed
            assert_serial_sum(report)
        assert result.total_time == pytest.approx(
            sum(report.elapsed for report in reports), rel=1e-12)

    def test_depth_no_slower(self):
        _, t_off = self._run("off")
        _, t_d3 = self._run("depth-3")
        assert t_d3 <= t_off + 1e-9
