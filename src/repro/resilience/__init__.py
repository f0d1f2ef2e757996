"""Deterministic fault injection and recovery policies.

Public surface:

* :class:`FaultPlan` / :class:`FaultSpec` / :class:`RecoveryPolicy` —
  the declarative schedule (``repro train --faults plan.json``).
* :class:`FaultInjector` + the ambient :func:`session` /
  :func:`active` runtime the hot-path seams consult.
* :func:`recover` — the one recovery loop: all four sites
  (``storage.read``, ``transfer.h2d``, ``sampler.worker``, ``replica``)
  fail, back off, retry and give up
  (:class:`~repro.errors.RecoveryExhausted`) through it; :func:`degrade`
  is the one fallback path for callers that have one.

See ``docs/resilience.md`` for the plan schema and policy semantics.
"""

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
    "degrade",
    "recover",
    "session",
]
