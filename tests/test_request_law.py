"""The request-accounting law of a serving window, under random plans.

Every request of a window ends exactly once: it completes (fresh or
stale) or its batch is shed.  For any seeded serving plan — rate, batch
size, cache, placement, degraded mode and ``storage.read`` /
``transfer.h2d`` faults inside the window — these hold:

* ``completed + shed == num_requests`` and ``stale <= completed``;
* one latency per completed request, and every request in one batch;
* the ``serve.requests{outcome}`` counters sum to ``num_requests``.

Faults are placed after warm-up (dataset load, model copy, cache fill):
an exhausted fault there has no batch to degrade, so it raises
:class:`~repro.errors.RecoveryExhausted` — asserted separately.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RecoveryExhausted
from repro.resilience import FaultPlan, FaultSpec, KINDS, RecoveryPolicy
from repro.serving import ServeConfig, run_serving_experiment
from repro.telemetry import session as telemetry_session

LAW = settings(max_examples=50, deadline=None)
SITES = ("storage.read", "transfer.h2d")
NUM_REQUESTS = 24

#: Occurrences of each site before the window opens, on the busiest
#: warm-up (cpugpu with a cache): one dataset read; the model's weights
#: and the cache fill over PCIe.
WARMUP = {"storage.read": 1, "transfer.h2d": 7}


def _config(**overrides):
    base = dict(framework="dglite", dataset="ppi", dataset_scale=0.3,
                num_requests=NUM_REQUESTS, placement="cpugpu",
                cache_fraction=0.25, seed=0)
    base.update(overrides)
    return ServeConfig(**base)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
def window_faults(site):
    return st.builds(
        FaultSpec, site=st.just(site), kind=st.sampled_from(KINDS[site]),
        at=st.integers(WARMUP[site] + 1, WARMUP[site] + 12),
        count=st.integers(1, 4),
        severity=st.sampled_from([0.0, 0.5, 1.0]),
        stall_seconds=st.sampled_from([0.0, 0.01]))


@st.composite
def plans(draw):
    faults = draw(st.lists(st.one_of([window_faults(s) for s in SITES]),
                           max_size=4))
    policies = {site: RecoveryPolicy(
        max_retries=draw(st.integers(0, 2)),
        backoff=draw(st.sampled_from([0.0, 0.001]))) for site in SITES}
    return FaultPlan(seed=draw(st.integers(0, 3)), faults=tuple(faults),
                     policies=policies)


CONFIGS = st.builds(
    _config, rate=st.sampled_from([50.0, 200.0, 1000.0, 5000.0]),
    max_batch=st.integers(1, 12),
    cache_fraction=st.sampled_from([0.0, 0.25, 0.5]),
    placement=st.sampled_from(["cpu", "cpugpu"]),
    degraded_mode=st.sampled_from(["shed", "stale"]))


# ---------------------------------------------------------------------------
# the laws
# ---------------------------------------------------------------------------
@LAW
@given(config=CONFIGS, plan=plans())
def test_every_request_ends_exactly_once(config, plan):
    with telemetry_session() as sess:
        result = run_serving_experiment(config, fault_plan=plan)
    assert result.completed + result.shed == NUM_REQUESTS
    assert result.stale <= result.completed
    assert len(result.latencies) == result.completed
    assert sum(result.batch_sizes) == NUM_REQUESTS
    if result.stale:
        assert config.degraded_mode == "stale"
        assert config.placement == "cpugpu" and config.cache_fraction > 0
    assert sum(m.value for m in sess.metrics.metrics()
               if m.name == "serve.requests") == NUM_REQUESTS


@pytest.mark.parametrize("site, at", [
    (site, at) for site in SITES for at in range(1, WARMUP[site] + 2)])
def test_an_exhausted_warmup_fault_raises(site, at):
    plan = FaultPlan(seed=0, faults=(FaultSpec(site=site, kind="error",
                                               at=at),),
                     policies={site: RecoveryPolicy(max_retries=0)})
    if at <= WARMUP[site]:
        with pytest.raises(RecoveryExhausted, match=site):
            run_serving_experiment(_config(), fault_plan=plan)
    else:  # the first occurrence inside the window degrades instead
        result = run_serving_experiment(_config(), fault_plan=plan)
        assert result.resilience["degraded"] == 1
