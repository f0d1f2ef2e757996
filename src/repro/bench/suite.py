"""Declarative experiment suites.

A suite is a JSON-serializable list of experiment specs; each spec names
an experiment kind (``train`` / ``fullbatch`` / ``loader`` / ``sampler`` /
``conv``) plus its parameters.  :func:`run_suite` executes them in order
on fresh machines and returns uniform records; :func:`save_results` /
:func:`load_results` persist them for regression comparisons.

Example::

    suite = [
        {"kind": "train", "framework": "dglite", "dataset": "ppi",
         "model": "graphsage", "placement": "cpu", "epochs": 2},
        {"kind": "conv", "framework": "pyglite", "dataset": "reddit",
         "conv": "gat", "device": "gpu"},
    ]
    records = run_suite(suite)
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Union

from repro.artifacts import atomic_write, load
from repro.bench.harness import (
    measure_conv_forward,
    measure_data_loader,
    measure_sampler_epoch,
    run_fullbatch_experiment,
    run_training_experiment,
)
from repro.errors import BenchmarkError

VALID_KINDS = ("train", "fullbatch", "loader", "sampler", "conv")


def _run_one(spec: Dict) -> Dict:
    kind = spec.get("kind")
    if kind == "train":
        result = run_training_experiment(
            spec["framework"], spec["dataset"], spec["model"],
            placement=spec.get("placement", "cpu"),
            preload=spec.get("preload", False),
            prefetch=spec.get("prefetch", False),
            epochs=spec.get("epochs", 10),
            representative_batches=spec.get("representative_batches", 2),
            feature_cache_fraction=spec.get("feature_cache_fraction", 0.0),
        )
        return {
            "label": result.label,
            "total_time": result.total_time,
            "phases": result.phases,
            "avg_power": result.avg_power,
            "energy": result.total_energy,
            "oom": result.oom,
        }
    if kind == "fullbatch":
        result = run_fullbatch_experiment(
            spec["framework"], spec["dataset"],
            device=spec.get("device", "cpu"),
            epochs=spec.get("epochs", 3),
        )
        return {
            "label": result.label,
            "epoch_time": result.phases.get("training", 0.0),
            "avg_power": result.avg_power,
            "energy": result.total_energy,
            "oom": result.oom,
        }
    if kind == "loader":
        seconds = measure_data_loader(spec["framework"], spec["dataset"])
        return {"label": f"loader/{spec['framework']}", "seconds": seconds}
    if kind == "sampler":
        out = measure_sampler_epoch(spec["framework"], spec["dataset"],
                                    spec.get("sampler", "neighbor"))
        return {"label": f"sampler/{spec['framework']}", **out}
    if kind == "conv":
        result = measure_conv_forward(spec["framework"], spec["dataset"],
                                      spec.get("conv", "gcn"),
                                      device=spec.get("device", "cpu"))
        return {
            "label": result.label,
            "seconds": result.phases.get("forward"),
            "oom": result.oom,
        }
    raise BenchmarkError(
        f"unknown experiment kind {kind!r}; expected one of {VALID_KINDS}"
    )


def run_suite(specs: Sequence[Dict]) -> List[Dict]:
    """Run every spec; each record echoes its spec plus the results."""
    records = []
    for index, spec in enumerate(specs):
        if not isinstance(spec, dict):
            raise BenchmarkError(f"spec #{index} is not an object")
        record = {"spec": dict(spec)}
        record.update(_run_one(spec))
        records.append(record)
    return records


def run_suite_file(path: Union[str, Path]) -> List[Dict]:
    """Load a JSON suite file and run it."""
    payload = load(path)
    if not isinstance(payload, list):
        raise BenchmarkError("suite file must contain a JSON list of specs")
    return run_suite(payload)


def save_results(records: List[Dict], path: Union[str, Path]) -> Path:
    return atomic_write(path, json.dumps(records, indent=2))


def load_results(path: Union[str, Path]) -> List[Dict]:
    return load(path)


def compare_results(old: List[Dict], new: List[Dict],
                    tolerance: float = 0.05) -> List[str]:
    """Regressions between two runs of the same suite.

    Returns human-readable deviation messages for any numeric field that
    moved by more than ``tolerance`` (relative).  Simulated results are
    deterministic, so any drift means the code changed behaviour.
    """
    problems = []
    if len(old) != len(new):
        return [f"record count changed: {len(old)} -> {len(new)}"]
    for i, (a, b) in enumerate(zip(old, new)):
        for key, old_value in a.items():
            if key in ("spec", "label") or not isinstance(old_value, (int, float)):
                continue
            new_value = b.get(key)
            if not isinstance(new_value, (int, float)):
                problems.append(f"#{i} {key}: missing in new results")
                continue
            if old_value == 0:
                continue
            drift = abs(new_value - old_value) / abs(old_value)
            if drift > tolerance:
                problems.append(
                    f"#{i} ({a.get('label', '?')}) {key}: "
                    f"{old_value:.6g} -> {new_value:.6g} ({100 * drift:.1f}%)"
                )
    return problems
