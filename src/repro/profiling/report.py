"""Breakdown records and text rendering for runtime reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.telemetry.spans import PHASES


@dataclass(frozen=True)
class BreakdownReport:
    """Four-phase runtime breakdown of one training run."""

    label: str
    phases: Dict[str, float]

    @property
    def total(self) -> float:
        return sum(self.phases.values())

    def seconds(self, phase: str) -> float:
        return self.phases.get(phase, 0.0)

    def fraction(self, phase: str) -> float:
        total = self.total
        return self.phases.get(phase, 0.0) / total if total > 0 else 0.0


def format_breakdown_table(reports: Sequence[BreakdownReport],
                           phases: Sequence[str] = PHASES) -> str:
    """Render reports as the stacked-bar data behind Figures 6/10/14."""
    label_w = max(12, max((len(r.label) for r in reports), default=12))
    header = f"{'config':<{label_w}}" + "".join(f"{p:>16}" for p in phases) + f"{'total':>12}"
    lines = [header, "-" * len(header)]
    for report in reports:
        cells = "".join(
            f"{report.seconds(p):>10.3f}s {100 * report.fraction(p):>3.0f}%" for p in phases
        )
        lines.append(f"{report.label:<{label_w}}{cells}{report.total:>11.3f}s")
    return "\n".join(lines)
