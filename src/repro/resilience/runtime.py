"""Ambient resilience session, mirroring ``repro.telemetry.runtime``.

Hot paths never hold an injector reference; they ask this module.  With
no fault plan active, :func:`recover` costs one list check, so the
subsystem is free for every ordinary run.  Sessions stack
(LIFO) so a test can nest a plan inside an instrumented harness.

:func:`recover` is the one recovery loop of all four fault sites
(``storage.read``, ``transfer.h2d``, ``sampler.worker``, ``replica``);
:func:`degrade` is the one fallback path for callers that have a fallback.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, List, Optional

from repro.errors import RecoveryExhausted
from repro.resilience.injector import FaultInjector
from repro.resilience.plan import FATAL_KINDS, LATE_KINDS, FaultPlan, \
    FaultSpec
from repro.telemetry.runtime import maybe_span

_STACK: List[FaultInjector] = []


def active() -> Optional[FaultInjector]:
    """The innermost active injector, or None when injection is off."""
    return _STACK[-1] if _STACK else None


@contextmanager
def session(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Activate a fresh injector for ``plan`` for the duration of the block."""
    injector = FaultInjector(plan)
    _STACK.append(injector)
    try:
        yield injector
    finally:
        del _STACK[_STACK.index(injector):]


def recover(site: str, cost: float, charge: Callable[[float, FaultSpec], None],
            wait: Callable[[float], None], action: str = "retry") -> float:
    """Survive the faults of one operation of clean cost ``cost`` at ``site``.

    Arms the site once per attempt until an attempt comes up clean, and
    returns how late the last attempt completed (the caller charges
    ``cost``).  Each armed fault bills ``charge(fault.seconds(cost),
    fault)``: a late kind (``stall``, ``straggler``) completes late and
    is recovered with action ``stall``; any other kind bills its wasted
    share (skipped when zero) and fails.  A failure past ``max_retries``,
    or of a fatal kind (``dead``), raises :class:`RecoveryExhausted` at
    once; otherwise its backoff is billed as ``wait(seconds)`` — in a
    ``recover.retry`` span for ``action="retry"``; a worker ``respawn``
    waits inside its datapipe job — and one retry and one recovery
    (``action``) are recorded.
    """
    if not _STACK:
        return 0.0
    injector = _STACK[-1]
    policy = injector.policy(site)
    failures = 0
    while True:
        fault = injector.arm(site)
        if fault is None:
            return 0.0
        injector.record("injected", site, kind=fault.kind)
        seconds = fault.seconds(cost)
        if fault.kind in LATE_KINDS:
            charge(seconds, fault)
            injector.record("recovered", site, action="stall")
            return seconds
        if seconds > 0:
            charge(seconds, fault)
        failures += 1
        if failures > policy.max_retries or fault.kind in FATAL_KINDS:
            raise RecoveryExhausted(site, failures)
        delay = injector.backoff_delay(site, failures)
        with (maybe_span("recover.retry", category="resilience", site=site,
                         attempt=failures)
              if action == "retry" else nullcontext()):
            if delay > 0:
                wait(delay)
        injector.record("retries", site)
        injector.record("recovered", site, action=action)


def degrade(exhausted: RecoveryExhausted) -> None:
    """Take the caller's fallback for ``exhausted``, or re-raise it under a
    ``degrade: false`` policy.  The fallback recovers the exhausted fault
    (action ``degrade``), so ``recovered == injected`` still holds."""
    injector = _STACK[-1]
    if not injector.policy(exhausted.site).degrade:
        raise exhausted
    injector.record("degraded", exhausted.site)
    injector.record("recovered", exhausted.site, action="degrade")
