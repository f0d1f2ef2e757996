"""Perf-trajectory regression gate over ``BENCH_<area>.json`` baselines.

The gate compares a fresh sweep against the committed baseline artifact.
Virtual time and energy are deterministic per (code, seed), so a
baseline is a pure function of the two: an unchanged tree reproduces
every per-seed value bit for bit, and anything else is a change.  The
check is therefore equality.  A cell that moved fails the gate and is
explained, not tolerated: the report gives each changed metric's
``old -> new (ratio)``, the attribution hints (which phases and kernel
families moved) and the provenance keys that differ.  An intended move
is a baseline refresh (``repro bench sweep``) that names the moved cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.bench.artifacts import CELL_METRICS, SWEEP


@dataclass
class GateResult:
    """Everything one area's comparison produced."""

    area: str
    # Structural: schema/matrix mismatches, or a cell that could not re-run.
    problems: List[str] = field(default_factory=list)
    # One line per changed metric plus the moved cell's attribution hints.
    moved: List[str] = field(default_factory=list)
    # Provenance keys that differ baseline -> fresh; filled only when
    # something moved, as the first place to look.
    environment: List[str] = field(default_factory=list)
    cells: int = 0  # baseline cells compared

    @property
    def passed(self) -> bool:
        """Every compared cell reproduced the baseline bit for bit."""
        return not self.problems and not self.moved


def provenance_delta(baseline: dict, current: dict) -> List[str]:
    """``key: old -> new`` per provenance key the two artifacts disagree on."""
    old, new = baseline["provenance"], current["provenance"]
    return [f"{key}: {old.get(key)!r} -> {new.get(key)!r}"
            for key in sorted(set(old) | set(new))
            if old.get(key) != new.get(key)]


def _delta_line(cell_id: str, metric: str, base: list, now: list) -> str:
    """``old -> new (ratio)`` over the per-seed means."""
    base_mean, now_mean = sum(base) / len(base), sum(now) / len(now)
    ratio = now_mean / base_mean if base_mean else float("inf")
    return (f"{cell_id} {metric}: {base_mean:.6g} -> {now_mean:.6g} "
            f"({ratio:.4f}x)")


def compare_artifacts(baseline: dict, current: dict) -> GateResult:
    """Check ``current`` equals ``baseline``; never raises on bad input."""
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
            f"seed set changed: {baseline['seeds']} -> {current['seeds']}")
        return result
    current_cells = {cell["id"]: cell for cell in current["cells"]}
    for cell in baseline["cells"]:
        cell_id = cell["id"]
        fresh = current_cells.get(cell_id)
        if fresh is None:
            result.problems.append(f"cell {cell_id} missing from current sweep")
            continue
        result.cells += 1
        if fresh == cell:
            continue
        lines = [_delta_line(cell_id, metric, cell["metrics"][metric],
                             fresh["metrics"][metric])
                 for metric in CELL_METRICS
                 if fresh["metrics"][metric] != cell["metrics"][metric]]
        if fresh["params"] != cell["params"]:
            lines.append(f"{cell_id} params: {cell['params']} -> "
                         f"{fresh['params']}")
        label = "attribution" if lines else "attribution only"
        lines += [f"{cell_id} {label}: {hint}"
                  for hint in attribution_hints(cell, fresh)]
        result.moved.extend(lines)
    if result.moved:
        result.environment = provenance_delta(baseline, current)
    return result


def attribution_hints(baseline_cell: dict, fresh_cell: dict,
                      per_axis: int = 3) -> tuple:
    """Attribute one cell's move to phases / kernel families.

    Runs the differential profiler's delta classifier over the
    ``attribution`` breakdowns recorded in each sweep cell (first seed's
    phase and kernel-family virtual seconds), so a gate failure names
    *where* the time appeared, not just that it did.  Empty when neither
    cell recorded attribution.
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


def format_gate_report(results: Sequence[GateResult]) -> str:
    """Human-readable multi-area report naming every moved cell."""
    lines: List[str] = []
    for result in results:
        verdict = "PASS" if result.passed else "FAIL"
        summary = "bit-identical" if result.passed else (
            f"{len(result.problems)} problem(s), "
            f"{len(result.moved)} moved line(s)")
        lines.append(f"[{verdict}] bench gate: {result.area} "
                     f"({result.cells} cell(s), {summary})")
        lines += [f"  problem: {problem}" for problem in result.problems]
        lines += [f"  moved: {moved}" for moved in result.moved]
        lines += [f"  environment: {key}" for key in result.environment]
    if all(r.passed for r in results):
        lines.append("perf trajectory OK")
    elif any(r.moved for r in results):
        lines.append("perf trajectory MOVED — if intended, refresh the "
                     "baselines with `repro bench sweep` and list the moved "
                     "cells with the change (see docs/bench.md)")
    else:
        lines.append("perf trajectory NOT COMPARED — fix the problems above "
                     "(see docs/bench.md)")
    return "\n".join(lines)
