"""Roofline attribution: where every kernel sits relative to peak.

Joins the per-kernel counters (:meth:`RunBundle.kernel_series`) against
the device peaks recorded in the run manifest's ``hardware`` section,
classifying each (device,
kernel) series compute-, memory-, or overhead-bound with arithmetic
intensity and achieved %-of-peak.  PCIe traffic is attributed as
transfer-bound against the link's DMA bandwidth.

All ratio math is guarded: missing peaks, zero busy time, or zero
denominators yield 0.0 (or a null intensity), never a
``ZeroDivisionError`` — a run on a machine with no recorded hardware
section still analyzes, it just cannot be placed on the roofline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.profiling.analysis.bundle import RunBundle, device_peaks, link_spec


def pct_of_peak(achieved: float, peak: float) -> float:
    """``achieved / peak`` guarded against zero/negative/missing peaks."""
    if peak is None or peak <= 0 or achieved <= 0:
        return 0.0
    return achieved / peak


def _ratio(numerator: float, denominator: float) -> float:
    if denominator <= 0:
        return 0.0
    return numerator / denominator


def _classify(flops: float, nbytes: float, peak_flops: float,
              mem_bw: float) -> str:
    """Which roofline wall the kernel leans on, from ideal times."""
    if flops <= 0 and nbytes <= 0:
        return "overhead"  # launch-latency / fixed-time only
    compute_t = _ratio(flops, peak_flops)
    memory_t = _ratio(nbytes, mem_bw)
    if compute_t <= 0 and memory_t <= 0:
        return "unknown"  # no hardware peaks recorded
    return "compute" if compute_t >= memory_t else "memory"


def roofline_attribution(bundle: RunBundle) -> dict:
    """Roofline payload: per-kernel entries plus the transfer lanes."""
    peaks = device_peaks(bundle)
    entries: List[dict] = []
    for (device, kernel), work in sorted(bundle.kernel_series().items()):
        spec = peaks.get(device, {})
        peak_flops = float(spec.get("peak_flops", 0.0) or 0.0)
        mem_bw = float(spec.get("mem_bandwidth", 0.0) or 0.0)
        seconds = work["seconds"]
        flops, nbytes = work["flops"], work["bytes"]
        intensity: Optional[float] = (flops / nbytes if nbytes > 0 else None)
        entries.append({
            "device": device,
            "kernel": kernel,
            "seconds": seconds,
            "flops": flops,
            "bytes": nbytes,
            "launches": work["launches"],
            "bound": _classify(flops, nbytes, peak_flops, mem_bw),
            "intensity_flops_per_byte": intensity,
            "pct_peak_compute": pct_of_peak(_ratio(flops, seconds), peak_flops),
            "pct_peak_memory": pct_of_peak(_ratio(nbytes, seconds), mem_bw),
        })
    entries.sort(key=lambda e: (-e["seconds"], e["device"], e["kernel"]))
    by_bound: Dict[str, float] = {}
    for entry in entries:
        by_bound[entry["bound"]] = by_bound.get(entry["bound"], 0.0) \
            + entry["seconds"]
    transfers = _transfer_entries(bundle)
    for transfer in transfers:
        by_bound["transfer"] = by_bound.get("transfer", 0.0) \
            + transfer["seconds"]
    return {
        "kernels": entries,
        "transfers": transfers,
        "seconds_by_bound": {k: by_bound[k] for k in sorted(by_bound)},
    }


def _transfer_entries(bundle: RunBundle) -> List[dict]:
    """PCIe traffic as transfer-bound roofline entries (one per lane tag)."""
    link = link_spec(bundle) or {}
    lane = str(link.get("lane", "pcie"))
    bandwidth = float(link.get("bandwidth", 0.0) or 0.0)
    bytes_by_direction = {
        dict(labels).get("direction", "?"): value
        for labels, value in bundle.counter_series("pcie.bytes").items()
    }
    # Lane-qualified keys ("pcie@copy", "pcie@h2d") are the pipeline's
    # per-stage PCIe timelines; they are still this link's traffic.
    seconds_total = sum(iv.duration for iv in bundle.intervals
                        if iv.lane == lane
                        or iv.lane.startswith(lane + "@"))
    if not bytes_by_direction and seconds_total <= 0:
        return []
    total_bytes = sum(bytes_by_direction.values())
    return [{
        "lane": lane,
        "seconds": seconds_total,
        "bytes": total_bytes,
        "bytes_by_direction": {k: bytes_by_direction[k]
                               for k in sorted(bytes_by_direction)},
        "bound": "transfer",
        "pct_peak_bandwidth": pct_of_peak(_ratio(total_bytes, seconds_total),
                                          bandwidth),
    }]
