"""Offline profile analysis over one run's telemetry artifacts.

The telemetry layer records *what happened* (spans, device busy
intervals, counters); this package answers *why it took that long*:

* :mod:`~repro.profiling.analysis.critical_path` — the chain of device
  intervals that bounds end-to-end virtual time, with per-lane slack.
* :mod:`~repro.profiling.analysis.roofline` — per-kernel placement on
  the device roofline (compute-/memory-/transfer-bound, arithmetic
  intensity, %-of-peak).
* :mod:`~repro.profiling.analysis.flame` — a deterministic folded-stack
  flamegraph of the span tree.
* :mod:`~repro.profiling.analysis.diff` — differential profiling of two
  runs (span-tree alignment, phase/kernel delta attribution).

Everything is a pure function of the artifact bundle on disk, exposed
through ``repro profile analyze DIR`` / ``repro profile diff A B``.
"""

from repro.profiling.analysis.bundle import RunBundle, load_run_bundle
from repro.profiling.analysis.diff import diff_run_dirs
from repro.profiling.analysis.engine import (
    analyze_run_dir,
    format_diff_report,
    format_profile_report,
)
from repro.profiling.analysis.schema import PROFILE

__all__ = [
    "PROFILE",
    "RunBundle",
    "analyze_run_dir",
    "diff_run_dirs",
    "format_diff_report",
    "format_profile_report",
    "load_run_bundle",
]
