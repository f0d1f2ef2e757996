"""Orchestration: run every analysis over a telemetry directory.

``analyze_run_dir`` is what ``repro profile analyze DIR`` calls: it
loads the bundle, runs critical-path extraction, roofline attribution,
and the flamegraph fold, writes ``profile.json`` (validated,
``repro.profile/1``) plus ``flame.folded`` next to the run artifacts,
and returns the payload.  The formatters render the payloads for the
terminal.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.artifacts import atomic_write
from repro.profiling.analysis.bundle import RunBundle, load_run_bundle
from repro.profiling.analysis.critical_path import extract_critical_path
from repro.profiling.analysis.flame import folded_stacks, render_folded
from repro.profiling.analysis.roofline import roofline_attribution
from repro.profiling.analysis.schema import PROFILE, build_profile_payload

PROFILE_FILENAME = "profile.json"
FLAME_FILENAME = "flame.folded"
DIFF_FILENAME = "diff.json"


def analyze_bundle(bundle: RunBundle) -> dict:
    """All three analyses over an in-memory bundle (no file output)."""
    manifest = bundle.manifest
    stacks = folded_stacks(bundle.span_records)
    return build_profile_payload(
        run={
            "label": bundle.label,
            "command": manifest.get("command", "?"),
            "dataset": manifest.get("dataset", "?"),
            "seed": manifest.get("seed", 0),
            "total_seconds": bundle.total_seconds,
        },
        critical_path=extract_critical_path(bundle),
        roofline=roofline_attribution(bundle),
        flame={
            "stacks": len(stacks),
            "total_micros": sum(stacks.values()),
            "file": FLAME_FILENAME,
        },
    )


def analyze_run_dir(run_dir: Union[str, Path],
                    out_dir: Optional[Union[str, Path]] = None) -> dict:
    """Analyze one telemetry directory and write the profile artifacts.

    Writes ``profile.json`` and ``flame.folded`` into ``out_dir``
    (default: the run directory itself) and returns the validated
    payload with an ``artifacts`` map of written paths attached.
    """
    bundle = load_run_bundle(run_dir)
    out = Path(out_dir) if out_dir is not None else Path(run_dir)
    payload = analyze_bundle(bundle)
    profile_path = PROFILE.write(out / PROFILE_FILENAME, payload)
    flame_path = atomic_write(
        out / FLAME_FILENAME, render_folded(folded_stacks(bundle.span_records)))
    payload["artifacts"] = {"profile": str(profile_path),
                            "flame": str(flame_path)}
    return payload


# ----------------------------------------------------------------------
# terminal rendering
# ----------------------------------------------------------------------
def format_profile_report(payload: dict) -> str:
    run = payload.get("run", {})
    critical = payload.get("critical_path", {})
    roofline = payload.get("roofline", {})
    lines: List[str] = []
    lines.append(f"{run.get('label', '?')} / {run.get('dataset', '?')} "
                 f"(seed {run.get('seed', '?')}, "
                 f"total {run.get('total_seconds', 0.0):.4f}s)")
    lines.append("")
    lines.append(f"critical path: {critical.get('critical_seconds', 0.0):.4f}s "
                 f"over a {critical.get('makespan', 0.0):.4f}s makespan "
                 f"({100 * critical.get('coverage', 0.0):.1f}% covered, "
                 f"{critical.get('idle_seconds', 0.0):.4f}s idle, "
                 f"{critical.get('overlap_seconds', 0.0):.4f}s overlapped)")
    by_lane = critical.get("by_lane", {})
    if by_lane:
        header = f"  {'lane':<24}{'busy':>10}{'on-path':>10}{'slack':>10}"
        lines += [header, "  " + "-" * (len(header) - 2)]
        for lane in sorted(by_lane):
            stats = by_lane[lane]
            lines.append(f"  {lane:<24}{stats['busy_seconds']:>9.4f}s"
                         f"{stats['critical_seconds']:>9.4f}s"
                         f"{stats['slack_seconds']:>9.4f}s")
    top = critical.get("top", [])
    if top:
        lines.append("  bounding work:")
        for entry in top[:8]:
            lines.append(f"    {entry['lane']}/{entry['name']:<28}"
                         f"{entry['seconds']:>9.4f}s x{entry['count']}")
    lines.append("")
    by_bound = roofline.get("seconds_by_bound", {})
    if by_bound:
        total = sum(by_bound.values())
        summary = ", ".join(
            f"{bound} {100 * seconds / total:.1f}%" if total > 0
            else f"{bound} 0.0%"
            for bound, seconds in sorted(by_bound.items()))
        lines.append(f"roofline: {summary}")
    header = (f"  {'device':<24}{'kernel':<26}{'bound':<10}"
              f"{'seconds':>10}{'%peak':>8}")
    lines += [header, "  " + "-" * (len(header) - 2)]
    for entry in roofline.get("kernels", [])[:12]:
        pct = max(entry["pct_peak_compute"], entry["pct_peak_memory"])
        lines.append(f"  {entry['device']:<24}{entry['kernel']:<26}"
                     f"{entry['bound']:<10}{entry['seconds']:>9.4f}s"
                     f"{100 * pct:>7.1f}%")
    for transfer in roofline.get("transfers", []):
        lines.append(f"  {transfer['lane']:<24}{'(dma traffic)':<26}"
                     f"{'transfer':<10}{transfer['seconds']:>9.4f}s"
                     f"{100 * transfer['pct_peak_bandwidth']:>7.1f}%")
    flame = payload.get("flame", {})
    lines.append("")
    lines.append(f"flamegraph: {flame.get('stacks', 0)} stacks, "
                 f"{flame.get('total_micros', 0)} us folded "
                 f"-> {flame.get('file', FLAME_FILENAME)}")
    return "\n".join(lines)


def _flatten_axis(payload: dict, axis: str) -> List[tuple]:
    axes: Dict[str, List[dict]] = payload.get(axis, {})
    entries = []
    for bucket in ("grown", "shrunk", "appeared", "vanished"):
        for entry in axes.get(bucket, []):
            entries.append((bucket, entry))
    entries.sort(key=lambda item: (-abs(item[1]["delta"]), item[1]["key"]))
    return entries


def format_diff_report(payload: dict) -> str:
    base, current = payload.get("base", {}), payload.get("current", {})
    lines: List[str] = []
    lines.append(f"diff: {base.get('label', '?')} (base) vs "
                 f"{current.get('label', '?')} (current)")
    delta = payload.get("delta_total_seconds", 0.0)
    lines.append(f"total: {base.get('total_seconds', 0.0):.4f}s -> "
                 f"{current.get('total_seconds', 0.0):.4f}s "
                 f"({delta:+.4f}s)")
    if base.get("kernel_mode") != current.get("kernel_mode"):
        lines.append(f"kernel schedule: {base.get('kernel_mode', '?')} -> "
                     f"{current.get('kernel_mode', '?')}")
    if payload.get("identical"):
        lines.append("runs are identical on the virtual clock "
                     "(zero delta on every axis)")
        return "\n".join(lines)
    for axis, title in (("phases", "phases"),
                        ("kernel_families", "kernel families"),
                        ("kernels", "kernels"),
                        ("spans", "span paths")):
        entries = _flatten_axis(payload, axis)
        if not entries:
            continue
        lines.append(f"{title}:")
        for bucket, entry in entries[:10]:
            lines.append(f"  {bucket:<9}{entry['key']:<44}"
                         f"{entry['base']:>10.4f}s -> "
                         f"{entry['current']:>10.4f}s "
                         f"({entry['delta']:+.4f}s)")
    fastpath = _flatten_axis(payload, "fastpath")
    if fastpath:
        lines.append("kernel fast-path schedule (hit/miss counts, "
                     "virtual cost unchanged by design):")
        for bucket, entry in fastpath[:10]:
            lines.append(f"  {bucket:<9}{entry['key']:<44}"
                         f"{entry['base']:>10.0f} -> "
                         f"{entry['current']:>10.0f} "
                         f"({entry['delta']:+.0f})")
    return "\n".join(lines)
