"""The versioned ``repro.profile/1`` artifact schema.

Both analysis outputs ship under one schema id with a ``kind``
discriminator:

* ``kind: "analysis"`` — ``profile.json`` from ``repro profile analyze``
  (critical path + roofline + flamegraph summary for one run).
* ``kind: "diff"`` — ``diff.json`` from ``repro profile diff`` (delta
  attribution between two runs).

:data:`PROFILE` validates either kind and writes it through the artifact
layer (:mod:`repro.artifacts`): an invalid payload is refused rather
than persisted, and a crash mid-write never leaves a truncated file.
"""

from __future__ import annotations

from typing import List

from repro.artifacts import NUM, Format, ListOf, OneOf, conform

_DELTA_AXES = ("spans", "phases", "kernel_families", "kernels", "fastpath")
_DELTA_BUCKETS = ("grown", "shrunk", "appeared", "vanished")

_PEAK_KEYS = ("pct_peak_compute", "pct_peak_memory")

_KINDS = {
    "analysis": {
        "run": dict,
        "critical_path": {
            **{key: NUM for key in ("makespan", "critical_seconds",
                                    "idle_seconds", "overlap_seconds",
                                    "coverage")},
            "segments": list,
            "by_lane": dict,
        },
        "roofline": {
            "kernels": ListOf({
                "kernel": str,
                "bound": OneOf("compute", "memory", "transfer", "overhead",
                               "unknown"),
                **{key: NUM for key in ("seconds", "flops", "bytes")
                   + _PEAK_KEYS},
            }),
            "seconds_by_bound": dict,
        },
        "flame": {"stacks": int, "total_micros": int},
    },
    "diff": {
        "base": dict,
        "current": dict,
        "delta_total_seconds": NUM,
        "identical": bool,
        **{axis: {bucket: ListOf({"key": str, "delta": NUM})
                  for bucket in _DELTA_BUCKETS}
           for axis in _DELTA_AXES},
    },
}


def build_profile_payload(*, run: dict, critical_path: dict, roofline: dict,
                          flame: dict) -> dict:
    """Frame one run's analyses as a ``repro.profile/1`` artifact."""
    return {
        "schema": PROFILE.schema,
        "kind": "analysis",
        "run": dict(run),
        "critical_path": dict(critical_path),
        "roofline": dict(roofline),
        "flame": dict(flame),
    }


def build_diff_payload(diff: dict) -> dict:
    """Frame a :func:`~repro.profiling.analysis.diff.diff_bundles` result."""
    payload = {"schema": PROFILE.schema, "kind": "diff"}
    payload.update(diff)
    return payload


def _check_kind(payload: dict) -> List[str]:
    """The shape of the payload's ``kind``, then what no shape says."""
    problems = conform(payload, _KINDS[payload["kind"]])
    if problems or payload["kind"] != "analysis":
        return problems
    if payload["flame"]["stacks"] < 0:
        problems.append("flame.stacks: negative")
    for index, entry in enumerate(payload["roofline"]["kernels"]):
        problems += [f"roofline.kernels[{index}].{key}: negative"
                     for key in _PEAK_KEYS if entry[key] < 0]
    return problems


PROFILE = Format("repro.profile/1", {"kind": OneOf(*_KINDS)},
                 check=_check_kind)
