"""The versioned ``repro.serve/1`` serving-report schema.

One report records one serving study: the workload/batching
configuration plus, per framework × offered load, the latency tail
(p50/p95/p99 by exact nearest-rank), achieved throughput, request
outcomes, cache behaviour, and phase attribution.  :data:`SERVE` writes
it the one canonical way (:mod:`repro.artifacts`) and the report holds
**no volatile provenance** (no timestamps, no git state), so two runs
with the same seed produce byte-identical files; the CI serve-smoke job
``cmp``'s them to hold that line.
"""

from __future__ import annotations

from typing import List

from repro.artifacts import NUM, Format, ListOf, MapOf
from repro.serving.engine import ServeConfig, ServeResult

_CONFIG_KEYS = (
    "dataset", "model", "trace", "num_requests", "nodes_per_request",
    "budget_s", "max_batch", "placement", "pipeline", "cache_fraction",
    "cache_policy", "degraded_mode", "seed", "dataset_scale",
)
_SUMMARY_KEYS = ("p50", "p95", "p99", "mean", "max")


def build_serve_report(config: ServeConfig,
                       results: List[ServeResult]) -> dict:
    """Assemble one report from measured serving windows.

    The shared workload/batching knobs come from ``config``; each entry
    carries its own framework and offered load (the sweep axes).  Entries
    are sorted by ``(framework, offered_load)`` so the on-disk order is
    independent of execution order.
    """
    entries = []
    for result in sorted(results,
                         key=lambda r: (r.config.framework, r.config.rate)):
        summary = result.latency_summary()
        entries.append({
            "framework": result.config.framework,
            "label": result.label,
            "offered_load": float(result.config.rate),
            "throughput": result.throughput,
            "latency": {k: float(summary[k]) for k in _SUMMARY_KEYS},
            "completed": result.completed,
            "shed": result.shed,
            "stale": result.stale,
            "batches": {
                "count": len(result.batch_sizes),
                "mean_size": (sum(result.batch_sizes)
                              / len(result.batch_sizes)
                              if result.batch_sizes else 0.0),
                "closed_by": dict(sorted(result.batch_closes.items())),
            },
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "hit_rate": result.hit_rate,
            "makespan_s": result.makespan,
            "max_batch_wait_s": result.max_batch_wait,
            "budget_violations": result.budget_violations,
            "energy_j": result.total_energy,
            "phases": {k: float(v)
                       for k, v in sorted(result.phases.items())},
        })
    return {
        "schema": SERVE.schema,
        "config": {key: getattr(config, key) for key in _CONFIG_KEYS},
        "results": entries,
    }


def _check_order(report: dict) -> List[str]:
    keys = [(e["framework"], e["offered_load"]) for e in report["results"]]
    return ([] if keys == sorted(keys)
            else ["results: not sorted by (framework, offered_load)"])


SERVE = Format("repro.serve/1", {
    "config": {key: object for key in _CONFIG_KEYS},
    "results": ListOf({
        "framework": str,
        **{key: NUM for key in (
            "offered_load", "throughput", "completed", "shed", "stale",
            "cache_hits", "cache_misses", "hit_rate", "makespan_s",
            "max_batch_wait_s", "budget_violations", "energy_j")},
        "latency": {key: NUM for key in _SUMMARY_KEYS},
        "phases": MapOf(NUM),
        "batches": {"count": int, "closed_by": dict},
    }, non_empty=True),
}, check=_check_order)


def format_serve_table(report: dict) -> str:
    """Human-readable summary table for the CLI."""
    lines = [f"{'cell':<34} {'p50(ms)':>9} {'p95(ms)':>9} {'p99(ms)':>9} "
             f"{'rps':>8} {'hit%':>6} {'shed':>5}"]
    for entry in report["results"]:
        lat = entry["latency"]
        lines.append(
            f"{entry['label']:<34} {lat['p50'] * 1e3:>9.3f} "
            f"{lat['p95'] * 1e3:>9.3f} {lat['p99'] * 1e3:>9.3f} "
            f"{entry['throughput']:>8.1f} {entry['hit_rate'] * 100:>6.1f} "
            f"{entry['shed']:>5d}")
    return "\n".join(lines)
