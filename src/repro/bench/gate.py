"""Perf-trajectory regression gate over ``BENCH_<area>.json`` baselines.

The gate compares a fresh sweep against the committed baseline artifact.
Virtual time and energy are deterministic per (code, seed), so an
unchanged tree reproduces every per-seed value bit for bit and the gate
says so.  Only a cell that is *not* bit-identical is held to a noise
envelope, whose statistics are computed here from the baseline's
per-seed values (:class:`~repro.bench.repeats.RepeatedStats`)::

    allowed = max(mean + k * sample_std,      # seeded-repeat noise bound
                  mean * (1 + rel_slack))     # floor for zero-std metrics

The sample-std across seeds reflects genuine seed sensitivity (sampling
order, model init), not host noise — a tight, honest envelope for
*intentional* changes.  A cell above it fails the gate; a cell that
moved inside it passes and is listed, so drift is never silent.

Improvements (cells now *below* the envelope) never fail the gate; they
are listed in the report as the cue to refresh the committed baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.bench.artifacts import CELL_METRICS, SWEEP
from repro.bench.repeats import RepeatedStats

DEFAULT_NOISE_K = 3.0
DEFAULT_REL_SLACK = 0.02


@dataclass(frozen=True)
class CellRegression:
    """One metric of one cell exceeding its noise envelope."""

    cell_id: str
    metric: str
    baseline_mean: float
    baseline_std: float
    allowed: float
    current_mean: float
    # Differential-profiling attribution: which phases / kernel families
    # moved between the baseline's recorded breakdown and the fresh run.
    hints: tuple = ()

    @property
    def ratio(self) -> float:
        return (self.current_mean / self.baseline_mean
                if self.baseline_mean else float("inf"))

    def describe(self) -> str:
        return (f"{self.cell_id} {self.metric}: "
                f"{self.baseline_mean:.6g} -> {self.current_mean:.6g} "
                f"({self.ratio:.2f}x, allowed <= {self.allowed:.6g})")


@dataclass
class GateResult:
    """Everything one area's comparison produced."""

    area: str
    regressions: List[CellRegression] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    # Structural: schema/matrix mismatches.
    problems: List[str] = field(default_factory=list)
    # Cells whose per-seed values changed but stayed inside the envelope.
    moved: List[str] = field(default_factory=list)
    # Provenance keys that differ baseline -> fresh; filled only when
    # something moved, as the first place to look.
    environment: List[str] = field(default_factory=list)
    cells: int = 0  # baseline cells compared

    @property
    def passed(self) -> bool:
        return not self.regressions and not self.problems

    @property
    def identical(self) -> bool:
        """Every compared cell reproduced the baseline bit for bit."""
        return not (self.problems or self.regressions or self.improvements
                    or self.moved)


def noise_envelope(mean: float, std: float, k: float = DEFAULT_NOISE_K,
                   rel_slack: float = DEFAULT_REL_SLACK) -> float:
    """Upper bound a fresh measurement may reach without being a regression."""
    return max(mean + k * std, mean * (1.0 + rel_slack))


def provenance_delta(baseline: dict, current: dict) -> List[str]:
    """``key: old -> new`` per provenance key the two artifacts disagree on."""
    old, new = baseline["provenance"], current["provenance"]
    return [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
            for key in sorted(set(old) | set(new))
            if old.get(key) != new.get(key)]


def _delta_line(cell_id: str, metric: str, base: float, now: float) -> str:
    ratio = now / base if base else float("inf")
    return f"{cell_id} {metric}: {base:.6g} -> {now:.6g} ({ratio:.4f}x)"


def compare_artifacts(baseline: dict, current: dict, *,
                      k: float = DEFAULT_NOISE_K,
                      rel_slack: float = DEFAULT_REL_SLACK) -> GateResult:
    """Gate ``current`` against ``baseline``; never raises on bad input."""
    area = baseline.get("area") if isinstance(baseline, dict) else "?"
    result = GateResult(area=str(area))
    for name, artifact in (("baseline", baseline), ("current", current)):
        for problem in SWEEP.validate(artifact):
            result.problems.append(f"{name} artifact: {problem}")
    if result.problems:
        return result
    if baseline["area"] != current["area"]:
        result.problems.append(
            f"area mismatch: baseline {baseline['area']!r} vs "
            f"current {current['area']!r}")
        return result
    if baseline["seeds"] != current["seeds"]:
        result.problems.append(
            f"seed set changed: {baseline['seeds']} -> {current['seeds']} "
            "(noise envelopes are not comparable)")
        return result
    current_cells = {cell["id"]: cell for cell in current["cells"]}
    for cell in baseline["cells"]:
        cell_id = cell["id"]
        fresh = current_cells.get(cell_id)
        if fresh is None:
            result.problems.append(f"cell {cell_id} missing from current sweep")
            continue
        result.cells += 1
        changed = [m for m in CELL_METRICS
                   if fresh["metrics"][m] != cell["metrics"][m]]
        if not changed and fresh.get("attribution") == cell.get("attribution"):
            continue
        hints = attribution_hints(cell, fresh)
        if not changed:
            result.moved.extend(f"{cell_id} attribution only: {hint}"
                                for hint in hints)
        for metric in changed:
            base = RepeatedStats(tuple(cell["metrics"][metric]))
            now = RepeatedStats(tuple(fresh["metrics"][metric])).mean
            allowed = noise_envelope(base.mean, base.std,
                                     k=k, rel_slack=rel_slack)
            if now > allowed:
                result.regressions.append(CellRegression(
                    cell_id=cell_id, metric=metric,
                    baseline_mean=base.mean, baseline_std=base.std,
                    allowed=allowed, current_mean=now, hints=hints))
            elif now < base.mean * (1.0 - rel_slack):
                result.improvements.append(
                    _delta_line(cell_id, metric, base.mean, now))
            else:
                result.moved.append(
                    _delta_line(cell_id, metric, base.mean, now))
    if not result.identical:
        result.environment = provenance_delta(baseline, current)
    return result


def attribution_hints(baseline_cell: dict, fresh_cell: dict,
                      per_axis: int = 3) -> tuple:
    """Attribute one cell's regression to phases / kernel families.

    Runs the differential profiler's delta classifier over the
    ``attribution`` breakdowns recorded in each sweep cell (first seed's
    phase and kernel-family virtual seconds), so a gate failure names
    *where* the time appeared, not just that it did.  Empty when neither
    cell recorded attribution (pre-PR-8 baselines).
    """
    from repro.profiling.analysis.diff import classify_deltas

    base_attr = baseline_cell.get("attribution") or {}
    fresh_attr = fresh_cell.get("attribution") or {}
    hints = []
    for axis, title in (("phases", "phase"),
                        ("kernel_families", "kernel family")):
        base_map = {str(k): float(v)
                    for k, v in (base_attr.get(axis) or {}).items()}
        fresh_map = {str(k): float(v)
                     for k, v in (fresh_attr.get(axis) or {}).items()}
        if not base_map and not fresh_map:
            continue
        classified = classify_deltas(base_map, fresh_map)
        entries = [(bucket, entry)
                   for bucket in ("grown", "appeared", "shrunk", "vanished")
                   for entry in classified[bucket]]
        entries.sort(key=lambda item: (-abs(item[1]["delta"]),
                                       item[1]["key"]))
        for bucket, entry in entries[:per_axis]:
            hints.append(
                f"{title} {entry['key']} {bucket}: "
                f"{entry['base']:.6g}s -> {entry['current']:.6g}s "
                f"({entry['delta']:+.6g}s)")
    if not hints and (base_attr or fresh_attr):
        hints.append("attribution unchanged — the change is outside the "
                     "first seed's recorded phase/kernel breakdown "
                     "(another seed, or energy only)")
    return tuple(hints)


def inject_slowdown(artifact: dict, cell_id: str, factor: float) -> dict:
    """Scale one cell's metrics by ``factor`` (returns a deep copy).

    This is the gate's self-test hook: a synthetic 2× slowdown injected
    into any cell must make the gate fail and name that cell.
    """
    doctored = json.loads(json.dumps(artifact))
    for cell in doctored.get("cells", []):
        if cell.get("id") != cell_id:
            continue
        for metric in CELL_METRICS:
            cell["metrics"][metric] = [v * factor
                                       for v in cell["metrics"][metric]]
        attribution = cell.get("attribution")
        if isinstance(attribution, dict):
            # Scale the breakdown with the metrics so the self-test also
            # exercises the gate's regression-attribution hints.
            for axis in ("phases", "kernel_families"):
                section = attribution.get(axis)
                if isinstance(section, dict):
                    attribution[axis] = {key: value * factor
                                         for key, value in section.items()}
        return doctored
    raise KeyError(f"no sweep cell with id {cell_id!r}")


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
def format_gate_report(results: Sequence[GateResult]) -> str:
    """Human-readable multi-area report naming every offending cell."""
    lines: List[str] = []
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        summary = "bit-identical" if result.identical else (
            f"{len(result.regressions)} regression(s), "
            f"{len(result.problems)} problem(s), "
            f"{len(result.improvements)} improvement(s), "
            f"{len(result.moved)} moved inside envelope")
        lines.append(f"[{verdict}] bench gate: {result.area} "
                     f"({result.cells} cell(s), {summary})")
        for problem in result.problems:
            lines.append(f"  problem: {problem}")
        hinted = set()
        for regression in result.regressions:
            lines.append(f"  regression: {regression.describe()}")
            if regression.cell_id in hinted:
                continue
            hinted.add(regression.cell_id)
            for hint in regression.hints:
                lines.append(f"    attribution: {hint}")
        for improvement in result.improvements:
            lines.append(f"  improvement: {improvement}")
        for moved in result.moved:
            lines.append(f"  moved (inside envelope): {moved}")
        for key in result.environment:
            lines.append(f"  environment: {key}")
    if all(r.passed for r in results):
        lines.append("perf trajectory OK")
    elif any(r.regressions for r in results):
        lines.append("perf trajectory REGRESSED — investigate or refresh "
                     "the baseline (see docs/bench.md)")
    else:
        lines.append("perf trajectory NOT COMPARED — fix the problems above "
                     "(see docs/bench.md)")
    return "\n".join(lines)


def gate_report_payload(results: Sequence[GateResult]) -> dict:
    """Machine-readable report (versioned like the artifacts)."""
    return {
        "schema": "repro.bench.gate/1",
        "passed": all(r.passed for r in results),
        "areas": [
            {
                "area": r.area,
                "passed": r.passed,
                "identical": r.identical,
                "problems": list(r.problems),
                "improvements": list(r.improvements),
                "moved": list(r.moved),
                "environment": list(r.environment),
                "regressions": [
                    {
                        "cell": reg.cell_id,
                        "metric": reg.metric,
                        "baseline_mean": reg.baseline_mean,
                        "baseline_std": reg.baseline_std,
                        "allowed": reg.allowed,
                        "current_mean": reg.current_mean,
                        "ratio": reg.ratio,
                        "hints": list(reg.hints),
                    }
                    for reg in r.regressions
                ],
            }
            for r in results
        ],
    }
