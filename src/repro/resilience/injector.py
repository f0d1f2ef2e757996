"""The fault injector: arms scheduled faults and accounts recoveries.

One injector drives one run.  Seams call :meth:`FaultInjector.arm` once
per *attempt* (so a retried read arms a fresh occurrence), and the one
recovery loop reports back through :meth:`FaultInjector.record` so that

* every injected fault and recovery lands in the guarded telemetry
  counters (``fault.injected`` / ``fault.recovered`` / ``fault.retries``
  / ``fault.degraded``, labelled by site), and
* :meth:`summary` gives the harness a plain-dict view even when
  telemetry is off.

A healthy run always ends with ``recovered == injected``; the
acceptance tests assert exactly that.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.resilience.plan import DEFAULT_POLICY, FaultPlan, FaultSpec, \
    RecoveryPolicy, SITES
from repro.telemetry import runtime as telemetry


class FaultInjector:
    """Replays a :class:`FaultPlan` against the run's fault sites."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._occurrences: Dict[str, int] = {site: 0 for site in SITES}
        self._totals: Dict[str, int] = {
            "injected": 0, "recovered": 0, "retries": 0, "degraded": 0,
        }
        self._by_site: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    def arm(self, site: str) -> Optional[FaultSpec]:
        """Advance the site's occurrence counter; return a due fault."""
        self._occurrences[site] += 1
        occurrence = self._occurrences[site]
        for fault in self.plan.faults:
            if fault.site == site and fault.covers(occurrence):
                return fault
        return None

    def occurrence(self, site: str) -> int:
        """How many times ``site`` has been armed so far."""
        return self._occurrences[site]

    def policy(self, site: str) -> RecoveryPolicy:
        return self.plan.policy(site)

    def backoff_delay(self, site: str, attempt: int) -> float:
        """Virtual seconds to back off before retry ``attempt`` (1-based)."""
        policy = self.policy(site)
        delay = policy.backoff * policy.factor ** (attempt - 1)
        if policy.jitter > 0 and delay > 0:
            # Seeded per (plan, site, attempt): deterministic across runs.
            rng = np.random.default_rng(
                [self.plan.seed, SITES.index(site), attempt]
            )
            delay *= 1.0 + policy.jitter * rng.uniform(-1.0, 1.0)
        return delay

    # ------------------------------------------------------------------
    def record(self, event: str, site: str, **labels: str) -> None:
        """Count one ``event`` at ``site``: ``injected`` (label ``kind``),
        ``recovered`` (label ``action``), ``retries`` or ``degraded`` —
        in :meth:`summary` and as the ``fault.<event>`` counter."""
        self._totals[event] += 1
        bucket = self._by_site.setdefault(site, dict.fromkeys(self._totals, 0))
        bucket[event] += 1
        registry = telemetry.metrics()
        if registry is not None:
            registry.counter(f"fault.{event}", site=site, **labels).inc()

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Plain-dict totals for :class:`ExperimentResult` and the CLI."""
        out: Dict[str, object] = dict(self._totals)
        out["sites"] = {site: dict(counts)
                        for site, counts in sorted(self._by_site.items())}
        return out


__all__ = ["DEFAULT_POLICY", "FaultInjector"]
