"""Declarative fault plans: what fails, where, when, and how to recover.

A :class:`FaultPlan` is a pure data description — parsed from JSON on the
CLI (``repro train --faults plan.json``) or built in tests — that the
:class:`~repro.resilience.injector.FaultInjector` replays against the
four hot-path seams of the simulated stack:

==================  ====================================================
site                where it arms
==================  ====================================================
``storage.read``    :meth:`repro.hardware.machine.Machine.read_storage`
                    (the charged dataset load; torn writes surface the
                    same way a corrupted ``arrays.npz`` does)
``transfer.h2d``    :meth:`repro.hardware.interconnect.Interconnect.h2d`
                    (every PCIe batch copy)
``sampler.worker``  every ``sample`` job of a datapipe epoch that has
                    a worker pool (``num_workers >= 1`` or more than
                    one batch in flight)
``replica``         :class:`repro.distributed.trainer.DataParallelTrainer`
                    global steps (dead or straggling replicas)
==================  ====================================================

Occurrences are counted per site starting at 1, in virtual-clock order,
so a plan is exactly as deterministic as the run it attacks: the same
seed and schedule produce byte-identical telemetry bundles.  The first
three sites retry through one loop,
:func:`repro.resilience.runtime.recover`; ``replica`` recovers in the
data-parallel trainer (straggler wait, dead-replica exclusion).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.errors import FaultPlanError

#: The four injectable seams, in pipeline order.
SITES = ("storage.read", "transfer.h2d", "sampler.worker", "replica")

#: Fault kinds each site understands.
KINDS: Dict[str, Tuple[str, ...]] = {
    "storage.read": ("error", "torn_write", "stall"),
    "transfer.h2d": ("error", "stall"),
    "sampler.worker": ("crash",),
    "replica": ("dead", "straggler"),
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``count`` consecutive occurrences at a site.

    ``severity`` is the fraction of the operation's cost wasted before
    the failure is noticed (a torn write always wastes the full cost);
    ``stall_seconds`` is the extra latency of a ``stall`` fault;
    ``slow_factor`` multiplies a straggling replica's compute time;
    ``rank`` picks the victim replica (defaults to the highest live
    non-zero rank).
    """

    site: str
    kind: str
    at: int = 1
    count: int = 1
    severity: float = 0.5
    stall_seconds: float = 0.05
    slow_factor: float = 2.0
    rank: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if self.kind not in KINDS[self.site]:
            raise FaultPlanError(
                f"site {self.site!r} cannot fail with {self.kind!r}; "
                f"expected one of {KINDS[self.site]}"
            )
        if self.at < 1 or self.count < 1:
            raise FaultPlanError("'at' and 'count' must be >= 1")
        if not (0.0 <= self.severity <= 1.0):
            raise FaultPlanError("severity must be in [0, 1]")
        if self.stall_seconds < 0:
            raise FaultPlanError("stall_seconds must be >= 0")
        if self.slow_factor < 1.0:
            raise FaultPlanError("slow_factor must be >= 1")
        if self.rank is not None and self.rank < 1:
            raise FaultPlanError("replica rank must be >= 1 (rank 0 hosts "
                                 "the optimizer and cannot be excluded)")

    def covers(self, occurrence: int) -> bool:
        """Does this spec fire on the ``occurrence``-th arm of its site?"""
        return self.at <= occurrence < self.at + self.count


@dataclass(frozen=True)
class RecoveryPolicy:
    """Per-site recovery knobs.

    Bounded retry with exponential backoff: attempt ``1 + max_retries``
    times, sleeping ``backoff * factor**(n-1)`` virtual seconds before
    the n-th retry (plus seeded jitter of ±``jitter`` fraction).  Callers
    with a structural fallback (worker pool → inline sampling, serving →
    shed/stale answers) degrade instead of failing when ``degrade`` is
    set.
    """

    max_retries: int = 3
    backoff: float = 0.05
    factor: float = 2.0
    jitter: float = 0.0
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultPlanError("max_retries must be >= 0")
        if self.backoff < 0:
            raise FaultPlanError("backoff must be >= 0")
        if self.factor < 1.0:
            raise FaultPlanError("backoff factor must be >= 1")
        if not (0.0 <= self.jitter < 1.0):
            raise FaultPlanError("jitter must be in [0, 1)")


DEFAULT_POLICY = RecoveryPolicy()


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of faults plus per-site recovery policies."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()
    policies: Dict[str, RecoveryPolicy] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for site in self.policies:
            if site not in SITES:
                raise FaultPlanError(
                    f"policy for unknown site {site!r}; expected one of {SITES}"
                )

    def policy(self, site: str) -> RecoveryPolicy:
        return self.policies.get(site, DEFAULT_POLICY)

    def describe(self) -> str:
        """Deterministic one-line summary (safe for run manifests)."""
        sites = sorted({f.site for f in self.faults})
        return f"seed={self.seed} faults={len(self.faults)} sites={','.join(sites)}"

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, raw: Dict) -> "FaultPlan":
        if not isinstance(raw, dict):
            raise FaultPlanError("fault plan must be a JSON object")
        unknown = set(raw) - {"seed", "faults", "policies"}
        if unknown:
            raise FaultPlanError(f"unknown fault-plan keys {sorted(unknown)}")
        try:
            faults = tuple(FaultSpec(**spec) for spec in raw.get("faults", ()))
            policies = {site: RecoveryPolicy(**spec)
                        for site, spec in raw.get("policies", {}).items()}
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc
        return cls(seed=int(raw.get("seed", 0)), faults=faults,
                   policies=policies)

    @classmethod
    def coerce(cls, plan: Union[None, str, Path, Dict, "FaultPlan"]
               ) -> Optional["FaultPlan"]:
        """A plan, a plan dict, or a path to a plan JSON file, as a plan."""
        if plan is None or isinstance(plan, cls):
            return plan
        if isinstance(plan, dict):
            return cls.from_dict(plan)
        return cls.from_file(plan)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FaultPlan":
        path = Path(path)
        if not path.exists():
            raise FaultPlanError(f"no fault plan at {path}")
        return cls.from_json(path.read_text())
