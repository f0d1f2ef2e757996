"""Deterministic fault injection, recovery policies, and crash–resume.

Public surface:

* :class:`FaultPlan` / :class:`FaultSpec` / :class:`RecoveryPolicy` —
  the declarative schedule (``repro train --faults plan.json``).
* :class:`FaultInjector` + the ambient :func:`session` /
  :func:`active` / :func:`arm` runtime the hot-path seams consult.
* :func:`recover` — the one recovery loop: the ``storage.read``,
  ``transfer.h2d`` and ``sampler.worker`` seams fail, back off, retry
  and give up (:class:`~repro.errors.RecoveryExhausted`) through it;
  :func:`degrade` is the one fallback path for callers that have one.
* :func:`capture_rng_states` / :func:`restore_rng_states` — the
  generator snapshots that make resumed runs bit-identical.

See ``docs/resilience.md`` for the plan schema and policy semantics.
"""

from repro.resilience.checkpointing import capture_rng_states, restore_rng_states
from repro.resilience.injector import FaultInjector
from repro.resilience.plan import (
    DEFAULT_POLICY,
    FaultPlan,
    FaultSpec,
    KINDS,
    RecoveryPolicy,
    SITES,
)
from repro.resilience.runtime import (
    active,
    arm,
    degrade,
    recover,
    session,
)

__all__ = [
    "DEFAULT_POLICY",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KINDS",
    "RecoveryPolicy",
    "SITES",
    "active",
    "arm",
    "capture_rng_states",
    "degrade",
    "recover",
    "restore_rng_states",
    "session",
]
