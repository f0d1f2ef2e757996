"""Differential profiling: attribute the delta between two runs.

Two runs' span trees are aligned *by path* (root-to-span name chains,
the same key the flamegraph folds on), so renamed phases show up as one
``vanished`` plus one ``appeared`` entry rather than silently merging,
and missing spans land in ``vanished``.  The total virtual-time delta is
then attributed along four axes — span paths, the four phases, kernel
families, and per-(device, kernel) busy seconds — the A/B view for
dglite-vs-pyglite comparisons.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.profiling.analysis.bundle import RunBundle, load_run_bundle
from repro.profiling.analysis.flame import SEPARATOR

#: Deltas below this many virtual seconds are noise-floor equal.
DELTA_EPS = 1e-9

#: Entries kept per category (sorted by |delta| descending).
MAX_ENTRIES = 50


def span_path_totals(span_records: Sequence[dict]) -> Dict[str, float]:
    """Path -> total (inclusive) virtual seconds, aggregated."""
    by_id = {r["id"]: r for r in span_records}
    totals: Dict[str, float] = {}
    for record in span_records:
        names: List[str] = []
        seen = set()
        current = record
        while current is not None and current["id"] not in seen:
            seen.add(current["id"])
            names.append(str(current.get("name", "?")))
            parent = current.get("parent")
            current = by_id.get(parent) if parent is not None else None
        path = SEPARATOR.join(reversed(names))
        seconds = float(record.get("dur", 0.0)) \
            + float(record.get("credited", 0.0))
        totals[path] = totals.get(path, 0.0) + seconds
    return totals


def classify_deltas(base: Dict[str, float],
                    current: Dict[str, float]) -> Dict[str, List[dict]]:
    """Grown / shrunk / appeared / vanished entries between two keyed
    totals, each sorted by absolute delta (largest first)."""
    grown: List[dict] = []
    shrunk: List[dict] = []
    appeared: List[dict] = []
    vanished: List[dict] = []
    for key in sorted(set(base) | set(current)):
        a = base.get(key)
        b = current.get(key)
        if a is None:
            if b is not None and abs(b) > DELTA_EPS:
                appeared.append({"key": key, "base": 0.0, "current": b,
                                 "delta": b})
            continue
        if b is None:
            if abs(a) > DELTA_EPS:
                vanished.append({"key": key, "base": a, "current": 0.0,
                                 "delta": -a})
            continue
        delta = b - a
        if abs(delta) <= DELTA_EPS:
            continue
        entry = {"key": key, "base": a, "current": b, "delta": delta}
        (grown if delta > 0 else shrunk).append(entry)
    for bucket in (grown, shrunk, appeared, vanished):
        bucket.sort(key=lambda e: (-abs(e["delta"]), e["key"]))
        del bucket[MAX_ENTRIES:]
    return {"grown": grown, "shrunk": shrunk, "appeared": appeared,
            "vanished": vanished}


def _run_summary(bundle: RunBundle) -> dict:
    manifest = bundle.manifest
    return {
        "label": bundle.label,
        "command": manifest.get("command", "?"),
        "dataset": manifest.get("dataset", "?"),
        "seed": manifest.get("seed", 0),
        "total_seconds": bundle.total_seconds,
    }


def diff_bundles(base: RunBundle, current: RunBundle) -> dict:
    """The differential-profiling payload (without schema framing)."""
    phases_a = {k: float(v) for k, v in base.manifest.get("phases", {}).items()}
    phases_b = {k: float(v)
                for k, v in current.manifest.get("phases", {}).items()}
    families_a = {k: float(v) for k, v
                  in base.manifest.get("kernel_families", {}).items()}
    families_b = {k: float(v) for k, v
                  in current.manifest.get("kernel_families", {}).items()}
    kernels_a = _kernel_seconds(base)
    kernels_b = _kernel_seconds(current)
    delta_total = current.total_seconds - base.total_seconds
    classified = {
        "spans": classify_deltas(span_path_totals(base.span_records),
                                 span_path_totals(current.span_records)),
        "phases": classify_deltas(phases_a, phases_b),
        "kernel_families": classify_deltas(families_a, families_b),
        "kernels": classify_deltas(kernels_a, kernels_b),
    }
    payload = {
        "base": _run_summary(base),
        "current": _run_summary(current),
        "delta_total_seconds": delta_total,
        "identical": _all_empty(classified) and abs(delta_total) <= DELTA_EPS,
    }
    payload.update(classified)
    return payload


def _kernel_seconds(bundle: RunBundle) -> Dict[str, float]:
    """device/kernel -> busy seconds from the run's counters."""
    return {f"{device}/{kernel}": row["seconds"]
            for (device, kernel), row in bundle.kernel_series().items()}


def _all_empty(classified: Dict[str, Dict[str, List[dict]]]) -> bool:
    return all(not bucket
               for axes in classified.values()
               for bucket in axes.values())


def diff_run_dirs(base_dir: Union[str, Path],
                  current_dir: Union[str, Path]) -> dict:
    """Load two telemetry directories and return the ``repro.profile/1``
    diff payload."""
    from repro.profiling.analysis.schema import build_diff_payload

    base = load_run_bundle(base_dir)
    current = load_run_bundle(current_dir)
    return build_diff_payload(diff_bundles(base, current))
