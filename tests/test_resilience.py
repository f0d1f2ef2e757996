"""Tests for the resilience layer: fault plans, injection, recovery.

The acceptance bar (ISSUE 5): a seeded fault plan with at least one
fault at each of the four seams completes with ``fault.recovered ==
fault.injected`` in telemetry, byte-identical across two runs with the
same seed.
"""

import json

import numpy as np
import pytest

from repro.bench.harness import run_training_experiment
from repro.distributed import (DataParallelTrainer, multi_gpu_testbed,
                               ring_allreduce_time)
from repro.errors import FaultPlanError, RecoveryExhausted
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.models.graphsage import build_graphsage, graphsage_sampler
from repro.models.trainer import MiniBatchTrainer, TrainConfig
from repro.resilience import (
    DEFAULT_POLICY,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    KINDS,
    RecoveryPolicy,
    SITES,
)
from repro.resilience import runtime as resilience
from repro.telemetry.exporters import write_prometheus
from repro.telemetry.runtime import session as telemetry_session


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_from_json_parses_like_from_dict(self):
        raw = {
            "seed": 7,
            "faults": [
                {"site": "storage.read", "kind": "error", "at": 2},
                {"site": "replica", "kind": "dead", "rank": 3},
            ],
            "policies": {"storage.read": {"max_retries": 5, "jitter": 0.1}},
        }
        plan = FaultPlan.from_dict(raw)
        again = FaultPlan.from_json(json.dumps(raw))
        assert again == plan
        assert again.seed == 7
        assert again.policy("storage.read").max_retries == 5
        assert again.policy("transfer.h2d") == DEFAULT_POLICY

    def test_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 1,
            "faults": [{"site": "transfer.h2d", "kind": "stall"}],
        }))
        plan = FaultPlan.from_file(path)
        assert plan.faults[0].site == "transfer.h2d"
        with pytest.raises(FaultPlanError, match="no fault plan"):
            FaultPlan.from_file(tmp_path / "missing.json")

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seeds": 3})
        with pytest.raises(FaultPlanError, match="malformed"):
            FaultPlan.from_dict(
                {"faults": [{"site": "replica", "kind": "dead", "when": 9}]}
            )

    def test_unknown_site_and_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultSpec(site="gpu.meltdown", kind="error")
        with pytest.raises(FaultPlanError, match="cannot fail with"):
            FaultSpec(site="sampler.worker", kind="stall")
        with pytest.raises(FaultPlanError, match="unknown site"):
            FaultPlan(policies={"gpu.meltdown": RecoveryPolicy()})

    def test_spec_bounds(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="storage.read", kind="error", at=0)
        with pytest.raises(FaultPlanError):
            FaultSpec(site="storage.read", kind="error", severity=1.5)
        with pytest.raises(FaultPlanError):
            FaultSpec(site="storage.read", kind="stall", stall_seconds=-1)
        with pytest.raises(FaultPlanError):
            FaultSpec(site="replica", kind="straggler", slow_factor=0.5)
        with pytest.raises(FaultPlanError, match="rank must be >= 1"):
            FaultSpec(site="replica", kind="dead", rank=0)

    def test_policy_bounds(self):
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(FaultPlanError, match="backoff must be >= 0"):
            RecoveryPolicy(backoff=-0.01)
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(factor=0.9)
        with pytest.raises(FaultPlanError):
            RecoveryPolicy(jitter=1.0)

    def test_covers_window(self):
        spec = FaultSpec(site="transfer.h2d", kind="error", at=3, count=2)
        assert [spec.covers(n) for n in range(1, 7)] == \
            [False, False, True, True, False, False]

    def test_describe_is_deterministic(self):
        plan = FaultPlan(seed=4, faults=(
            FaultSpec(site="replica", kind="dead"),
            FaultSpec(site="storage.read", kind="error"),
        ))
        assert plan.describe() == \
            "seed=4 faults=2 sites=replica,storage.read"

    def test_every_site_has_kinds(self):
        assert set(KINDS) == set(SITES)
        assert all(KINDS[site] for site in SITES)


# ----------------------------------------------------------------------
# injector + runtime
# ----------------------------------------------------------------------
class TestInjector:
    def test_arm_counts_occurrences_per_site(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="storage.read", kind="error", at=2, count=2),
        ))
        injector = FaultInjector(plan)
        assert injector.arm("storage.read") is None          # occurrence 1
        assert injector.arm("transfer.h2d") is None          # other site
        assert injector.arm("storage.read") is not None      # occurrence 2
        assert injector.arm("storage.read") is not None      # occurrence 3
        assert injector.arm("storage.read") is None          # occurrence 4
        assert injector.occurrence("storage.read") == 4
        assert injector.occurrence("transfer.h2d") == 1

    def test_backoff_is_exponential(self):
        plan = FaultPlan(policies={
            "storage.read": RecoveryPolicy(backoff=0.1, factor=3.0),
        })
        injector = FaultInjector(plan)
        assert injector.backoff_delay("storage.read", 1) == pytest.approx(0.1)
        assert injector.backoff_delay("storage.read", 2) == pytest.approx(0.3)
        assert injector.backoff_delay("storage.read", 3) == pytest.approx(0.9)

    def test_jitter_is_seeded_and_bounded(self):
        def delays(seed):
            plan = FaultPlan(seed=seed, policies={
                "replica": RecoveryPolicy(backoff=1.0, jitter=0.5),
            })
            return [FaultInjector(plan).backoff_delay("replica", n)
                    for n in (1, 2, 3)]

        assert delays(0) == delays(0)          # deterministic per seed
        assert delays(0) != delays(1)          # seed matters
        for delay, base in zip(delays(0), (1.0, 2.0, 4.0)):
            assert 0.5 * base <= delay <= 1.5 * base

    def test_summary_accounts_by_site(self):
        injector = FaultInjector(FaultPlan())
        injector.record("injected", "storage.read", kind="error")
        injector.record("retries", "storage.read")
        injector.record("recovered", "storage.read", action="retry")
        injector.record("injected", "replica", kind="dead")
        injector.record("recovered", "replica", action="degrade")
        summary = injector.summary()
        assert summary["injected"] == 2
        assert summary["recovered"] == 2
        assert summary["retries"] == 1
        assert summary["degraded"] == 0
        assert summary["sites"]["storage.read"]["retries"] == 1
        assert summary["sites"]["replica"]["injected"] == 1


class TestRuntime:
    def test_disabled_by_default(self):
        assert resilience.active() is None
        # No session: nothing is armed, charged or recorded.
        assert resilience.recover("storage.read", 1.0, _never, _never) == 0.0

    def test_session_activates_and_pops(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="storage.read", kind="error"),
        ))
        with resilience.session(plan) as injector:
            assert resilience.active() is injector
            assert injector.arm("storage.read") is not None
        assert resilience.active() is None

    def test_recover_bills_waste_then_backoff_until_clean(self):
        plan = FaultPlan(
            faults=(FaultSpec(site="storage.read", kind="error", count=2,
                              severity=0.25),),
            policies={"storage.read": RecoveryPolicy(max_retries=3,
                                                     backoff=0.5, factor=2.0)},
        )
        bills = []
        with resilience.session(plan) as injector:
            extra = resilience.recover(
                "storage.read", 2.0,
                lambda seconds, fault: bills.append((fault.kind, seconds)),
                lambda seconds: bills.append(("wait", seconds)))
        assert extra == 0.0
        assert bills == [("error", 0.5), ("wait", 0.5),
                         ("error", 0.5), ("wait", 1.0)]
        assert injector.occurrence("storage.read") == 3  # 2 faults + clean
        summary = injector.summary()
        assert (summary["injected"], summary["retries"],
                summary["recovered"]) == (2, 2, 2)

    def test_stall_completes_the_attempt_late(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="transfer.h2d", kind="stall", stall_seconds=0.125),
        ))
        bills = []
        with resilience.session(plan) as injector:
            extra = resilience.recover(
                "transfer.h2d", 1.0,
                lambda seconds, fault: bills.append((fault.kind, seconds)),
                _never)
        assert extra == 0.125 and bills == [("stall", 0.125)]
        assert injector.occurrence("transfer.h2d") == 1  # no retry
        assert injector.summary()["sites"]["transfer.h2d"] == {
            "injected": 1, "recovered": 1, "retries": 0, "degraded": 0}

    def test_recover_exhausts_before_backing_off(self):
        plan = FaultPlan(
            faults=(FaultSpec(site="transfer.h2d", kind="error", count=99),),
            policies={"transfer.h2d": RecoveryPolicy(max_retries=2,
                                                     backoff=1.0)},
        )
        waits = []
        with resilience.session(plan) as injector:
            with pytest.raises(RecoveryExhausted) as excinfo:
                resilience.recover("transfer.h2d", 1.0,
                                   lambda seconds, fault: None, waits.append)
        assert excinfo.value.failures == 3
        # Two retries backed off; the third failure gave up at once.
        assert waits == [1.0, 2.0]
        # The terminal fault stays unrecovered: the telemetry shows it.
        assert injector.summary()["injected"] == 3
        assert injector.summary()["recovered"] == 2

    @pytest.mark.parametrize("allowed", [True, False])
    def test_degrade_recovers_the_exhausted_fault_or_reraises(self, allowed):
        plan = FaultPlan(
            faults=(FaultSpec(site="storage.read", kind="error"),),
            policies={"storage.read": RecoveryPolicy(max_retries=0,
                                                     degrade=allowed)},
        )
        with resilience.session(plan) as injector:
            try:
                resilience.recover("storage.read", 1.0,
                                   lambda seconds, fault: None, _never)
            except RecoveryExhausted as exhausted:
                if allowed:
                    resilience.degrade(exhausted)
                else:
                    with pytest.raises(RecoveryExhausted) as excinfo:
                        resilience.degrade(exhausted)
                    assert excinfo.value is exhausted
        summary = injector.summary()
        assert summary["injected"] == 1
        assert (summary["recovered"], summary["degraded"]) == \
            ((1, 1) if allowed else (0, 0))


def _never(*args):
    raise AssertionError(f"unexpected charge {args}")


# ----------------------------------------------------------------------
# the four seams
# ----------------------------------------------------------------------
def _plan(*faults, seed=0, policies=None):
    return FaultPlan(seed=seed, faults=tuple(faults),
                     policies=policies or {})


class TestStorageSeam:
    def test_read_error_is_retried_and_charged(self):
        machine = paper_testbed()
        baseline = paper_testbed()
        nbytes = 1 << 20
        baseline.read_storage(nbytes)
        plan = _plan(
            FaultSpec(site="storage.read", kind="error", severity=0.5),
            policies={"storage.read": RecoveryPolicy(backoff=0.25)},
        )
        with resilience.session(plan) as injector:
            machine.read_storage(nbytes)
        summary = injector.summary()
        assert summary["injected"] == 1
        assert summary["recovered"] == 1
        assert summary["retries"] == 1
        # Wasted half-read + backoff + full successful read.
        clean = baseline.clock.now
        assert machine.clock.now == pytest.approx(clean * 1.5 + 0.25)

    def test_torn_write_wastes_the_full_read(self):
        machine = paper_testbed()
        baseline = paper_testbed()
        nbytes = 1 << 20
        baseline.read_storage(nbytes)
        plan = _plan(
            FaultSpec(site="storage.read", kind="torn_write"),
            policies={"storage.read": RecoveryPolicy(backoff=0.0)},
        )
        with resilience.session(plan):
            machine.read_storage(nbytes)
        assert machine.clock.now == pytest.approx(2 * baseline.clock.now)

    def test_stall_adds_latency_without_retry(self):
        machine = paper_testbed()
        baseline = paper_testbed()
        nbytes = 1 << 20
        baseline.read_storage(nbytes)
        plan = _plan(FaultSpec(site="storage.read", kind="stall",
                               stall_seconds=0.125))
        with resilience.session(plan) as injector:
            machine.read_storage(nbytes)
        summary = injector.summary()
        assert summary["injected"] == 1
        assert summary["recovered"] == 1
        assert summary["retries"] == 0
        assert machine.clock.now == pytest.approx(
            baseline.clock.now + 0.125)

    def test_exhaustion_escapes(self):
        machine = paper_testbed()
        plan = _plan(
            FaultSpec(site="storage.read", kind="error", count=99),
            policies={"storage.read": RecoveryPolicy(max_retries=1,
                                                     backoff=0.0)},
        )
        with resilience.session(plan):
            with pytest.raises(RecoveryExhausted):
                machine.read_storage(1 << 20)


class TestTransferSeam:
    def test_h2d_stall_and_error(self):
        machine = paper_testbed()
        baseline = paper_testbed()
        nbytes = 1 << 22
        baseline.pcie.h2d(nbytes)
        clean = baseline.clock.now
        plan = _plan(
            FaultSpec(site="transfer.h2d", kind="stall", at=1,
                      stall_seconds=0.0625),
            FaultSpec(site="transfer.h2d", kind="error", at=2, severity=1.0),
            policies={"transfer.h2d": RecoveryPolicy(backoff=0.0)},
        )
        with resilience.session(plan) as injector:
            machine.pcie.h2d(nbytes)   # stalled
            machine.pcie.h2d(nbytes)   # fails once, retried
        summary = injector.summary()
        assert summary["injected"] == 2
        assert summary["recovered"] == 2
        assert summary["retries"] == 1
        assert machine.clock.now == pytest.approx(3 * clean + 0.0625)

    def test_d2h_is_not_a_fault_site(self):
        machine = paper_testbed()
        plan = _plan(FaultSpec(site="transfer.h2d", kind="error", count=99),
                     policies={"transfer.h2d": RecoveryPolicy(max_retries=0)})
        with resilience.session(plan) as injector:
            machine.pcie.d2h(1 << 20)  # must not raise
        assert injector.summary()["injected"] == 0


def _minibatch_trainer(machine, num_workers=0, epochs=1, framework="dglite",
                       **config_kwargs):
    """``num_workers=0`` at the default ``pipeline="off"`` samples inline."""
    fw = get_framework(framework)
    fgraph = fw.load("ppi", machine, scale=0.3)
    sampler = graphsage_sampler(fw, fgraph, seed=0)
    net = build_graphsage(fw, fgraph, hidden=16, seed=0)
    config = TrainConfig(epochs=epochs, placement="cpugpu",
                         num_workers=num_workers, representative_batches=2,
                         seed=0, **config_kwargs)
    return MiniBatchTrainer(fw, fgraph, sampler, net, config)


class TestWorkerSeam:
    def test_crash_is_respawned(self):
        machine = paper_testbed()
        trainer = _minibatch_trainer(machine, num_workers=2)
        plan = _plan(
            FaultSpec(site="sampler.worker", kind="crash", at=1, severity=0.5),
            policies={"sampler.worker": RecoveryPolicy(backoff=0.01)},
        )
        with resilience.session(plan) as injector:
            result = trainer.run()
        summary = injector.summary()
        assert summary["injected"] == 1
        assert summary["recovered"] == 1
        assert summary["retries"] == 1
        assert summary["degraded"] == 0
        assert not trainer._workers_degraded
        assert result.losses  # the run still trains

    def test_repeated_crashes_degrade_to_inline_sampling(self):
        machine = paper_testbed()
        trainer = _minibatch_trainer(machine, num_workers=2)
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
        assert summary["injected"] == summary["recovered"] == 2
        # Degraded epochs sample inline: once the pool is gone, the site
        # is never armed again.
        assert injector.occurrence("sampler.worker") == 2
        assert result.losses

    def test_degrading_pool_backs_off_only_for_respawns(self):
        """The crash past the budget tears the pool down at once: only
        the one respawn before it pays the backoff."""
        def clock_after(backoff):
            machine = paper_testbed()
            trainer = _minibatch_trainer(machine, num_workers=2)
            plan = _plan(
                FaultSpec(site="sampler.worker", kind="crash", count=99),
                policies={"sampler.worker": RecoveryPolicy(
                    max_retries=1, backoff=backoff, factor=1.0)},
            )
            with resilience.session(plan) as injector:
                trainer.run()
            return machine.clock.now, injector.summary()

        clean, _ = clock_after(0.0)
        slow, summary = clock_after(0.5)
        assert (summary["retries"], summary["degraded"]) == (1, 1)
        assert slow - clean == pytest.approx(0.5 * summary["retries"],
                                             rel=1e-12)

    def test_torn_down_pool_stays_inline_for_the_rest_of_the_run(self):
        machine = paper_testbed()
        trainer = _minibatch_trainer(machine, num_workers=2, epochs=3)
        plan = _plan(
            FaultSpec(site="sampler.worker", kind="crash", count=99),
            policies={"sampler.worker": RecoveryPolicy(max_retries=1,
                                                       backoff=0.0,
                                                       degrade=True)},
        )
        with resilience.session(plan) as injector:
            result = trainer.run()
        # Later epochs have no pool to crash: one lane, one batch in
        # flight, and the site is not armed again.
        assert injector.occurrence("sampler.worker") == 2
        assert injector.summary()["degraded"] == 1
        assert (trainer.in_flight(), trainer.sampler_pool()) == (1, (1, 1.0))
        assert len(result.losses) == 3 * 2

    def test_pool_exists_with_workers_or_depth(self):
        """The site is armed iff there is a pool to lose a worker from:
        ``num_workers >= 1`` or more than one batch in flight."""
        plan = _plan(FaultSpec(site="sampler.worker", kind="crash", at=1,
                               severity=0.5),
                     policies={"sampler.worker": RecoveryPolicy(backoff=0.0)})
        for kwargs, armed in ((dict(num_workers=1), True),
                              (dict(pipeline="depth-2"), True),
                              (dict(prefetch=True), True),
                              (dict(pipeline="depth-1"), False)):
            trainer = _minibatch_trainer(paper_testbed(), **kwargs)
            with resilience.session(plan) as injector:
                trainer.run()
            assert (injector.occurrence("sampler.worker") > 0) == armed, kwargs

    def test_degrade_disabled_exhausts(self):
        machine = paper_testbed()
        trainer = _minibatch_trainer(machine, num_workers=2)
        plan = _plan(
            FaultSpec(site="sampler.worker", kind="crash", count=99),
            policies={"sampler.worker": RecoveryPolicy(max_retries=1,
                                                       backoff=0.0,
                                                       degrade=False)},
        )
        with resilience.session(plan):
            with pytest.raises(RecoveryExhausted):
                trainer.run()

    def test_inline_sampling_never_arms_the_worker_site(self):
        machine = paper_testbed()
        trainer = _minibatch_trainer(machine, num_workers=0)
        plan = _plan(FaultSpec(site="sampler.worker", kind="crash", count=99),
                     policies={"sampler.worker":
                               RecoveryPolicy(max_retries=0, degrade=False)})
        with resilience.session(plan) as injector:
            trainer.run()
        assert injector.occurrence("sampler.worker") == 0


def _dp_trainer(k=4, epochs=1, reps=2):
    machine = multi_gpu_testbed(k)
    fw = get_framework("dglite")
    fgraph = fw.load("ppi", machine, scale=0.3)
    sampler = graphsage_sampler(fw, fgraph, seed=0)
    net = build_graphsage(fw, fgraph, hidden=16, seed=0)
    trainer = DataParallelTrainer(fw, fgraph, sampler, net, epochs=epochs,
                                  representative_steps=reps)
    return machine, trainer


class TestReplicaSeam:
    def test_straggler_waits_without_exclusion(self):
        machine, trainer = _dp_trainer(k=4)
        plan = _plan(FaultSpec(site="replica", kind="straggler", at=1,
                               slow_factor=3.0))
        with resilience.session(plan) as injector:
            trainer.run()
        summary = injector.summary()
        assert summary["injected"] == 1
        assert summary["recovered"] == 1
        assert trainer._active_ranks == [0, 1, 2, 3]
        assert summary["sites"]["replica"]["injected"] == 1

    def test_dead_replica_is_excluded_and_resharded(self):
        clean_machine, clean = _dp_trainer(k=4)
        clean.run()
        machine, trainer = _dp_trainer(k=4)
        plan = _plan(FaultSpec(site="replica", kind="dead", at=1, rank=2))
        with telemetry_session(machine.clock) as tsession, \
                resilience.session(plan) as injector:
            result = trainer.run()
        summary = injector.summary()
        assert summary["injected"] == 1
        assert summary["recovered"] == 1
        assert trainer._active_ranks == [0, 1, 3]
        assert result.losses
        assert [span.attrs["rank"] for span in tsession.tracer.spans()
                if span.name == "recover.exclude"] == [2]

        # The re-executed shard is one more compute window on GPU 0's
        # train job in the faulted step (the first), less what the smaller
        # surviving ring saves.  A replica's job is compute + all-reduce.
        def step0(m, rank):
            key = f"{m.gpus[rank].name}@dp.train"
            return m.clock.busy_intervals(key)[0].duration

        nbytes = trainer._grad_nbytes()
        ring4 = ring_allreduce_time(machine, nbytes)
        ring3 = ring_allreduce_time(machine, nbytes, num_gpus=3)
        compute = step0(clean_machine, 1) - ring4
        assert compute > 0
        assert step0(machine, 0) - step0(clean_machine, 0) == pytest.approx(
            compute - (ring4 - ring3), rel=1e-9)

    def test_rank_zero_cannot_die(self):
        with pytest.raises(FaultPlanError):
            FaultSpec(site="replica", kind="dead", rank=0)

    def test_single_gpu_has_no_victims(self):
        machine, trainer = _dp_trainer(k=1)
        plan = _plan(FaultSpec(site="replica", kind="dead", count=99))
        with resilience.session(plan) as injector:
            trainer.run()
        # No eligible victim: the fault silently cannot fire, and
        # neither counter moves (recovered == injected still holds).
        summary = injector.summary()
        assert summary["injected"] == summary["recovered"] == 0


def _dp_run(plan, k=4):
    """One faulted data-parallel run: (fault counters, injector, trainer,
    result)."""
    machine, trainer = _dp_trainer(k=k)
    with telemetry_session(machine.clock) as tsession, \
            resilience.session(FaultPlan.coerce(plan)) as injector:
        result = trainer.run()
    return tsession.metrics, injector, trainer, result


class TestReplicaRecoversThroughTheLoop:
    """``replica`` recovers through ``recover``/``degrade`` like every
    other site: policies, exhaustion and action labels included."""

    def test_straggler_is_recovered_as_a_stall(self):
        metrics, injector, _, _ = _dp_run({"faults": [
            {"site": "replica", "kind": "straggler", "slow_factor": 3.0}]})
        assert metrics.get("fault.recovered", site="replica",
                           action="stall").value == 1
        assert metrics.get("fault.degraded", site="replica") is None
        assert injector.summary()["sites"]["replica"] == {
            "injected": 1, "recovered": 1, "retries": 0, "degraded": 0}

    def test_dead_replica_is_recovered_by_degrading(self):
        metrics, injector, trainer, _ = _dp_run({"faults": [
            {"site": "replica", "kind": "dead", "rank": 2}]})
        assert metrics.get("fault.recovered", site="replica",
                           action="degrade").value == 1
        assert metrics.get("fault.degraded", site="replica").value == 1
        assert injector.summary()["sites"]["replica"] == {
            "injected": 1, "recovered": 1, "retries": 0, "degraded": 1}
        assert trainer._active_ranks == [0, 1, 3]

    def test_dead_replica_fails_the_run_without_degrade(self):
        machine, trainer = _dp_trainer(k=4)
        plan = FaultPlan.from_dict({
            "faults": [{"site": "replica", "kind": "dead", "rank": 2}],
            "policies": {"replica": {"degrade": False}},
        })
        with resilience.session(plan) as injector:
            with pytest.raises(RecoveryExhausted) as excinfo:
                trainer.run()
        assert (excinfo.value.site, excinfo.value.failures) == ("replica", 1)
        assert (injector.summary()["injected"],
                injector.summary()["recovered"]) == (1, 0)

    def test_fault_at_an_excluded_rank_is_recovered_at_zero_cost(self):
        dead = {"site": "replica", "kind": "dead", "at": 1, "rank": 2}
        _, _, _, alone = _dp_run({"faults": [dead]})
        _, injector, trainer, result = _dp_run({"faults": [
            dead, {"site": "replica", "kind": "straggler", "at": 2,
                   "rank": 2, "slow_factor": 3.0}]})
        summary = injector.summary()
        assert (summary["injected"], summary["recovered"]) == (2, 2)
        assert trainer._active_ranks == [0, 1, 3]
        assert result.phases == alone.phases
        assert result.total_time == alone.total_time

    @pytest.mark.parametrize("k", [1, 2])
    def test_site_is_not_armed_without_a_live_replica(self, k):
        # k=2: the one replica dies at step 1; steps 2.. have no victim.
        _, injector, trainer, _ = _dp_run({"faults": [
            {"site": "replica", "kind": "dead", "count": 99}]}, k=k)
        assert trainer._active_ranks == [0]
        assert injector.occurrence("replica") == k - 1
        assert (injector.summary()["injected"],
                injector.summary()["recovered"]) == (k - 1, k - 1)


# ----------------------------------------------------------------------
# acceptance: all four seams, one run, deterministic telemetry
# ----------------------------------------------------------------------
ALL_SEAMS_PLAN = {
    "seed": 42,
    "faults": [
        {"site": "storage.read", "kind": "error", "at": 1, "severity": 0.5},
        {"site": "transfer.h2d", "kind": "stall", "at": 2,
         "stall_seconds": 0.01},
        {"site": "transfer.h2d", "kind": "error", "at": 5, "severity": 1.0},
        {"site": "sampler.worker", "kind": "crash", "at": 1},
        {"site": "replica", "kind": "straggler", "at": 1, "slow_factor": 2.0},
        {"site": "replica", "kind": "dead", "at": 2, "rank": 3},
    ],
    "policies": {
        "storage.read": {"max_retries": 3, "backoff": 0.02, "jitter": 0.25},
        "transfer.h2d": {"max_retries": 3, "backoff": 0.01},
        "sampler.worker": {"max_retries": 2, "backoff": 0.01},
    },
}


def _run_all_seams(out_dir):
    """One orchestrated run that arms every seam, returns its summary."""
    plan = FaultPlan.from_dict(ALL_SEAMS_PLAN)
    machine = multi_gpu_testbed(4)
    fw = get_framework("dglite")
    with telemetry_session(machine.clock) as tsession, \
            resilience.session(plan) as injector:
        fgraph = fw.load("ppi", machine, scale=0.3)        # storage.read
        sampler = graphsage_sampler(fw, fgraph, seed=0)
        net = build_graphsage(fw, fgraph, hidden=16, seed=0)
        config = TrainConfig(epochs=1, placement="cpugpu", num_workers=2,
                             representative_batches=2, seed=0)
        MiniBatchTrainer(fw, fgraph, sampler, net, config).run()  # h2d + worker
        dp_sampler = graphsage_sampler(fw, fgraph, seed=1)
        dp_net = build_graphsage(fw, fgraph, hidden=16, seed=1)
        DataParallelTrainer(fw, fgraph, dp_sampler, dp_net, epochs=1,
                            representative_steps=2).run()  # replica
        write_prometheus(out_dir / "metrics.prom", tsession.metrics)
    return injector.summary()


class TestAllSeamsAcceptance:
    def test_recovered_equals_injected_and_bytes_repeat(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        summary = _run_all_seams(first)
        again = _run_all_seams(second)

        # Every seam injected at least one fault...
        assert set(summary["sites"]) == set(SITES)
        for site in SITES:
            assert summary["sites"][site]["injected"] >= 1
        # ...and every fault was recovered.
        assert summary["injected"] == summary["recovered"]
        assert summary["injected"] >= 6

        # Same seed, same plan: identical accounting and identical
        # telemetry bytes.
        assert again == summary
        assert (second / "metrics.prom").read_bytes() == \
            (first / "metrics.prom").read_bytes()

        prom = (first / "metrics.prom").read_text()
        assert "repro_fault_injected" in prom
        assert "repro_fault_recovered" in prom


class TestHarnessIntegration:
    def test_experiment_reports_resilience_summary(self, tmp_path):
        plan = {
            "seed": 0,
            "faults": [
                {"site": "storage.read", "kind": "error"},
                {"site": "transfer.h2d", "kind": "stall",
                 "stall_seconds": 0.01},
                {"site": "sampler.worker", "kind": "crash"},
            ],
            "policies": {"sampler.worker": {"backoff": 0.01}},
        }
        out = tmp_path / "telemetry"
        result = run_training_experiment(
            "dglite", "ppi", "graphsage", placement="cpugpu", epochs=1,
            representative_batches=2, seed=0, num_workers=2,
            telemetry_dir=str(out), fault_plan=plan,
        )
        assert result.resilience["injected"] == 3
        assert result.resilience["recovered"] == 3
        assert result.completed
        names = {line.split("{")[0] for line
                 in (out / "metrics.prom").read_text().splitlines()
                 if line and not line.startswith("#")}
        assert "repro_fault_injected" in names
        assert "repro_fault_recovered" in names
        assert "repro_fault_retries" in names

    def test_plan_file_and_manifest_stamp(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 3,
            "faults": [{"site": "storage.read", "kind": "stall",
                        "stall_seconds": 0.02}],
        }))
        out = tmp_path / "telemetry"
        result = run_training_experiment(
            "dglite", "ppi", "graphsage", epochs=1,
            representative_batches=2, seed=0,
            telemetry_dir=str(out), fault_plan=str(path),
        )
        assert result.resilience["injected"] == 1
        manifest = json.loads((out / "run.json").read_text())
        assert manifest["config"]["fault_plan"] == \
            "seed=3 faults=1 sites=storage.read"

    def test_faultless_run_has_no_resilience_block(self):
        result = run_training_experiment(
            "dglite", "ppi", "graphsage", epochs=1,
            representative_batches=2, seed=0,
        )
        assert result.resilience == {}
