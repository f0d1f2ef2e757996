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
is gated against (``repro bench gate``), so the format is
schema-versioned and validated the same way the telemetry bundle is
(:mod:`repro.telemetry.manifest`).

Writers are atomic (temp file + ``os.replace``): an interrupted sweep
never leaves a truncated-but-parseable baseline behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

SWEEP_SCHEMA = "repro.bench.sweep/2"
SWEEP_AREAS = ("kernels", "training", "serving")
CELL_METRICS = ("virtual_s", "energy_j")

_CELL_PARAM_KEYS = {
    "driver": str,
    "framework": str,
    "kernel": str,
    "dataset": str,
    "scale": (int, float),
}


def artifact_path(root: Union[str, Path], area: str) -> Path:
    """Canonical location of one area's baseline: ``<root>/BENCH_<area>.json``."""
    return Path(root) / f"BENCH_{area}.json"


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    A crash mid-write leaves either the old file or nothing — never a
    truncated result that a later reader would mistake for real data.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def build_sweep_artifact(area: str, cells: List[dict],
                         seeds: Sequence[int],
                         provenance: Optional[dict] = None) -> dict:
    """Assemble one area's artifact from already-measured cells."""
    if area not in SWEEP_AREAS:
        raise ValueError(f"unknown sweep area {area!r}; expected {SWEEP_AREAS}")
    return {
        "schema": SWEEP_SCHEMA,
        "area": area,
        "seeds": [int(s) for s in seeds],
        "provenance": dict(provenance or {}),
        "cells": list(cells),
    }


def write_sweep_artifact(path: Union[str, Path], artifact: dict) -> Path:
    problems = validate_sweep_artifact(artifact)
    if problems:
        raise ValueError(
            f"refusing to write invalid sweep artifact: {problems[0]}"
            + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else "")
        )
    return atomic_write_text(
        path, json.dumps(artifact, indent=2, sort_keys=True) + "\n")


def load_sweep_artifact(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_sweep_artifact(artifact: object) -> List[str]:
    """Schema-gate one artifact; returns human-readable problems."""
    problems: List[str] = []
    if not isinstance(artifact, dict):
        return ["artifact is not a JSON object"]
    if artifact.get("schema") != SWEEP_SCHEMA:
        # Nothing below means anything under another schema: one problem,
        # not one per cell.
        return [f"unknown schema {artifact.get('schema')!r} (expected "
                f"{SWEEP_SCHEMA}; re-sweep with `repro bench sweep`)"]
    if artifact.get("area") not in SWEEP_AREAS:
        problems.append(f"unknown area {artifact.get('area')!r}")
    seeds = artifact.get("seeds")
    if not isinstance(seeds, list) or not seeds \
            or not all(isinstance(s, int) for s in seeds):
        problems.append("seeds must be a non-empty list of integers")
    if not isinstance(artifact.get("provenance"), dict):
        problems.append("provenance must be an object")
    cells = artifact.get("cells")
    if not isinstance(cells, list) or not cells:
        return problems + ["cells must be a non-empty list"]
    seen_ids = set()
    for index, cell in enumerate(cells):
        for problem in _validate_cell(cell, seeds):
            problems.append(f"cell #{index}: {problem}")
        cell_id = cell.get("id") if isinstance(cell, dict) else None
        if cell_id in seen_ids:
            problems.append(f"duplicate cell id {cell_id!r}")
        seen_ids.add(cell_id)
    return problems


def _validate_cell(cell: object, seeds: object) -> List[str]:
    if not isinstance(cell, dict):
        return ["cell is not an object"]
    problems = []
    if not isinstance(cell.get("id"), str) or not cell.get("id"):
        problems.append("missing id")
    params = cell.get("params")
    if not isinstance(params, dict):
        problems.append("params must be an object")
    else:
        for key, types in _CELL_PARAM_KEYS.items():
            if key not in params:
                problems.append(f"params missing {key!r}")
            elif not isinstance(params[key], types):
                problems.append(f"params.{key} has wrong type "
                                f"{type(params[key]).__name__}")
    metrics = cell.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["metrics must be an object"]
    for name in CELL_METRICS:
        values = metrics.get(name)
        if values is None:
            problems.append(f"metric {name!r} missing")
        elif not isinstance(values, list) \
                or not all(isinstance(v, (int, float)) for v in values):
            problems.append(f"metric {name!r} must be a list of numbers "
                            "(one per seed)")
        elif isinstance(seeds, list) and len(values) != len(seeds):
            problems.append(f"metric {name!r} has {len(values)} values "
                            f"for {len(seeds)} seeds")
    attribution = cell.get("attribution")
    if attribution is not None:  # optional
        if not isinstance(attribution, dict):
            problems.append("attribution must be an object")
        else:
            for axis in ("phases", "kernel_families"):
                section = attribution.get(axis)
                if section is None:
                    continue
                if not isinstance(section, dict) or not all(
                        isinstance(v, (int, float)) for v in section.values()):
                    problems.append(f"attribution.{axis} must map names "
                                    "to numbers")
    return problems


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
            artifact = load_sweep_artifact(path)
        except (ValueError, json.JSONDecodeError) as exc:
            report[area] = [f"{path.name}: unparseable ({exc})"]
            continue
        problems = validate_sweep_artifact(artifact)
        if isinstance(artifact, dict) and artifact.get("area") not in (None, area):
            problems.append(f"area {artifact.get('area')!r} does not match "
                            f"file name {path.name}")
        report[area] = [f"{path.name}: {p}" for p in problems]
    return report
