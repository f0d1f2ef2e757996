"""The accounting law of the one recovery loop, under random fault plans.

Every retrying seam (``storage.read`` and ``transfer.h2d`` driven by
direct hardware calls, ``sampler.worker`` driven by a tiny
``run_epoch``) fails, backs off, retries and gives up through
``repro.resilience.runtime.recover``.  For any seeded plan two laws hold:

* every injected fault is either recovered or escapes as one
  ``RecoveryExhausted``: ``injected == recovered + exhausted``;
* the clock pays exactly the clean cost of every completed operation
  plus Σ waste + Σ backoff + Σ stall.

The expected bills come from a replay of the plan written here, not
from the code under test (only the backoff formula,
``FaultInjector.backoff_delay``, is shared).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datapipe import run_epoch
from repro.datapipe.pipeline import Stage
from repro.errors import RecoveryExhausted
from repro.hardware.machine import paper_testbed
from repro.resilience import (FaultInjector, FaultPlan, FaultSpec, KINDS,
                              RecoveryPolicy)
from repro.resilience import runtime as resilience

LAW = settings(max_examples=60, deadline=None)
HARDWARE_SITES = ("storage.read", "transfer.h2d")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
def specs(site):
    return st.builds(
        FaultSpec, site=st.just(site), kind=st.sampled_from(KINDS[site]),
        at=st.integers(1, 8), count=st.integers(1, 4),
        severity=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        stall_seconds=st.sampled_from([0.0, 0.01, 0.125]))


POLICIES = st.builds(
    RecoveryPolicy, max_retries=st.integers(0, 3),
    backoff=st.sampled_from([0.0, 0.001, 0.05]),
    factor=st.sampled_from([1.0, 2.0, 3.0]),
    jitter=st.sampled_from([0.0, 0.25]), degrade=st.booleans())


@st.composite
def plans(draw, sites):
    faults = draw(st.lists(st.one_of([specs(site) for site in sites]),
                           max_size=5))
    policies = {site: draw(POLICIES) for site in sites
                if draw(st.booleans())}
    return FaultPlan(seed=draw(st.integers(0, 3)), faults=tuple(faults),
                     policies=policies)


# ---------------------------------------------------------------------------
# the reference replay
# ---------------------------------------------------------------------------
class Replay:
    """What one plan must bill, operation by operation."""

    def __init__(self, plan):
        self.plan = plan
        self.delays = FaultInjector(plan)  # the backoff formula only
        self.occurrences = {}
        self.injected = self.recovered = self.exhausted = 0
        self.clean = self.waste = self.backoff = self.stall = 0.0

    def fault(self, site):
        n = self.occurrences[site] = self.occurrences.get(site, 0) + 1
        return next((f for f in self.plan.faults
                     if f.site == site and f.at <= n < f.at + f.count), None)

    def operation(self, site, cost):
        """Bill one operation; False when its retries ran out."""
        policy = self.plan.policy(site)
        failures = 0
        while True:
            fault = self.fault(site)
            if fault is None:
                self.clean += cost
                return True
            self.injected += 1
            if fault.kind == "stall":
                self.stall += fault.stall_seconds
                self.recovered += 1
                self.clean += cost
                return True
            self.waste += cost * (1.0 if fault.kind == "torn_write"
                                  else fault.severity)
            failures += 1
            if failures > policy.max_retries:
                if policy.degrade and site == "sampler.worker":
                    self.recovered += 1  # the inline fallback
                else:
                    self.exhausted += 1
                return False
            self.backoff += self.delays.backoff_delay(site, failures)
            self.recovered += 1

    @property
    def billed(self):
        return self.clean + self.waste + self.backoff + self.stall


def assert_laws(injector, replay, exhausted, clock_delta=None):
    summary = injector.summary()
    assert summary["injected"] == summary["recovered"] + exhausted
    assert (summary["injected"], summary["recovered"], exhausted) == \
        (replay.injected, replay.recovered, replay.exhausted)
    if clock_delta is not None:
        assert clock_delta == pytest.approx(replay.billed, rel=1e-12,
                                            abs=1e-15)


# ---------------------------------------------------------------------------
# the laws
# ---------------------------------------------------------------------------
@LAW
@given(plan=plans(HARDWARE_SITES),
       ops=st.lists(st.tuples(st.sampled_from(HARDWARE_SITES),
                              st.sampled_from([0, 1 << 10, 1 << 20, 3e7])),
                    min_size=1, max_size=12))
def test_hardware_seams_account_for_every_fault_and_second(plan, ops):
    machine = paper_testbed()
    storage = machine.storage
    replay = Replay(plan)
    exhausted = 0
    with resilience.session(plan) as injector:
        for site, nbytes in ops:
            if site == "storage.read":
                cost = storage.seek_latency + nbytes / storage.read_bandwidth
                call = machine.read_storage
            else:
                cost = machine.pcie.transfer_time(nbytes)
                call = machine.pcie.h2d
            completed = replay.operation(site, cost)
            try:
                call(nbytes)
            except RecoveryExhausted:
                exhausted += 1
                assert not completed
    assert_laws(injector, replay, exhausted, machine.clock.now)


@LAW
@given(plan=plans(("sampler.worker",)),
       costs=st.lists(st.sampled_from([0.0, 0.001, 0.02, 0.25]),
                      min_size=1, max_size=8),
       depth=st.integers(1, 3))
def test_worker_seam_accounts_for_every_fault_and_second(plan, costs, depth):
    machine = paper_testbed()
    cpu = machine.cpu.name

    def sample(index, payload):
        machine.clock.occupy(cpu, costs[index])
        return payload

    # One lane: the epoch is serial, so its span is the sum of its jobs.
    stage = Stage("sample", "sampling", fn=sample, lanes=("worker",),
                  fault_site="sampler.worker")
    replay = Replay(plan)
    for cost in costs:
        if not replay.operation("sampler.worker", cost):
            break  # the pool is gone (or the epoch died): no more arming
    replay.clean = sum(costs)  # every item still executes once
    exhausted = 0
    with resilience.session(plan) as injector:
        try:
            run_epoch(machine, [stage], range(len(costs)), depth)
        except RecoveryExhausted:
            exhausted = 1
    assert_laws(injector, replay, exhausted,
                None if exhausted else machine.clock.now)
