"""Versioned ``BENCH_<area>.json`` perf-trajectory artifacts.

One artifact records one sweep area (``kernels``, ``training`` or
``serving``) as a list of *cells* — one point of the kernel × framework
× logical-scale matrix — each carrying exactly what was measured: one
virtual-time and one energy value per seed.  Both are deterministic
functions of (code, seed), so an artifact is a pure function of the two
and a re-sweep in the same environment is byte-identical; statistics
over the seeds are derived by the reader
(:class:`~repro.bench.repeats.RepeatedStats`), never stored.  The
committed copies at the repo root are the perf baseline every future PR
is gated against (``repro bench gate``); :data:`SWEEP` is their format
(:mod:`repro.artifacts`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.artifacts import NUM, Format, ListOf, MapOf, OneOf, Opt, load

SWEEP_AREAS = ("kernels", "training", "serving")
CELL_METRICS = ("virtual_s", "energy_j")


def artifact_path(root: Union[str, Path], area: str) -> Path:
    """Canonical location of one area's baseline: ``<root>/BENCH_<area>.json``."""
    return Path(root) / f"BENCH_{area}.json"


def build_sweep_artifact(area: str, cells: List[dict],
                         seeds: Sequence[int],
                         provenance: Optional[dict] = None) -> dict:
    """Assemble one area's artifact from already-measured cells."""
    if area not in SWEEP_AREAS:
        raise ValueError(f"unknown sweep area {area!r}; expected {SWEEP_AREAS}")
    return {
        "schema": SWEEP.schema,
        "area": area,
        "seeds": [int(s) for s in seeds],
        "provenance": dict(provenance or {}),
        "cells": list(cells),
    }


def _check_sweep(artifact: dict) -> List[str]:
    """One value per seed in every metric, and no cell id twice."""
    problems: List[str] = []
    seen = set()
    for index, cell in enumerate(artifact["cells"]):
        for name in CELL_METRICS:
            values = cell["metrics"][name]
            if len(values) != len(artifact["seeds"]):
                problems.append(
                    f"cells[{index}].metrics.{name}: has {len(values)} values "
                    f"for {len(artifact['seeds'])} seeds")
        if cell["id"] in seen:
            problems.append(f"cells[{index}].id: duplicate cell id "
                            f"{cell['id']!r}")
        seen.add(cell["id"])
    return problems


SWEEP = Format("repro.bench.sweep/2", {
    "area": OneOf(*SWEEP_AREAS),
    "seeds": ListOf(int, non_empty=True),
    "provenance": dict,
    "cells": ListOf({
        "id": str,
        "params": {"driver": str, "framework": str, "kernel": str,
                   "dataset": str, "scale": NUM},
        "metrics": {name: ListOf(NUM) for name in CELL_METRICS},
        "attribution": Opt({"phases": Opt(MapOf(NUM)),
                            "kernel_families": Opt(MapOf(NUM))}),
    }, non_empty=True),
}, check=_check_sweep, remedy="; re-sweep with `repro bench sweep`")


def validate_baseline_dir(root: Union[str, Path],
                          areas: Sequence[str] = SWEEP_AREAS) -> Dict[str, List[str]]:
    """Validate every committed ``BENCH_<area>.json`` under ``root``."""
    report: Dict[str, List[str]] = {}
    for area in areas:
        path = artifact_path(root, area)
        if not path.exists():
            report[area] = [f"{path.name}: missing under {path.parent} "
                            "(run `repro bench sweep`)"]
            continue
        try:
            artifact = load(path)
        except ValueError as exc:
            report[area] = [f"{path.name}: unparseable ({exc})"]
            continue
        problems = SWEEP.validate(artifact)
        if isinstance(artifact, dict) and artifact.get("area") not in (None, area):
            problems.append(f"area {artifact.get('area')!r} does not match "
                            f"file name {path.name}")
        report[area] = [f"{path.name}: {p}" for p in problems]
    return report
