"""Kernel-level time attribution — the "magnifying glass" view.

The paper's title promises kernel-level insight; this module surfaces it:
every simulated device keeps per-kernel busy-time counters
(:class:`~repro.hardware.device.DeviceCounters`), exported as the
``kernel.*`` metrics of a run, and the table here ranks them to explain
*why* a framework is slow — e.g. PyG-CPU training time concentrating in
``scatter_add`` while DGL's concentrates in fused ``spmm``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.hardware.machine import Machine


def group_by_family(machine: Machine) -> Dict[str, float]:
    """Busy seconds grouped by kernel family prefix (spmm, scatter, ...).

    Kernel names follow ``family[.qualifier]`` (``spmm.fwd``,
    ``gather.bwd``, ``neighbor.sample``); grouping on the first dotted
    component gives the coarse attribution used by the benches.
    """
    grouped: Dict[str, float] = {}
    devices = [machine.cpu] + ([machine.gpu] if machine.gpu is not None else [])
    for device in devices:
        for kernel, seconds in device.counters.by_kernel.items():
            family = kernel.split(".")[0]
            grouped[family] = grouped.get(family, 0.0) + seconds
    return grouped


#: ``--sort`` axis -> row field for the metrics-backed breakdown.
KERNEL_SORT_KEYS = {"virtual": "seconds", "flops": "flops", "bytes": "bytes"}

_KERNEL_COUNTER_FIELDS = {
    "kernel.busy_seconds": "seconds",
    "kernel.flops": "flops",
    "kernel.bytes_moved": "bytes",
    "kernel.invocations": "launches",
}


def kernel_rows_from_metrics(metric_records: Sequence[dict],
                             sort: str = "virtual",
                             top: int = 0) -> List[dict]:
    """Per-(device, kernel) rows joined from a run manifest's counters.

    It needs no live :class:`Machine`, only the ``metrics`` list of a
    ``run.json``, so ``repro report --telemetry`` can rank kernels after
    the fact.
    ``sort`` picks the descending axis (``virtual`` seconds, ``flops``,
    or ``bytes``); ``top`` limits the rows (0 = all).
    """
    if sort not in KERNEL_SORT_KEYS:
        raise ValueError(f"unknown sort axis {sort!r}; expected one of "
                         f"{tuple(KERNEL_SORT_KEYS)}")
    rows: Dict[Tuple[str, str], dict] = {}
    for record in metric_records:
        field = _KERNEL_COUNTER_FIELDS.get(record.get("name"))
        if field is None or record.get("kind") != "counter":
            continue
        labels = record.get("labels", {})
        key = (str(labels.get("device", "?")), str(labels.get("kernel", "?")))
        row = rows.setdefault(key, {"device": key[0], "kernel": key[1],
                                    "seconds": 0.0, "flops": 0.0,
                                    "bytes": 0.0, "launches": 0.0})
        row[field] += float(record.get("value", 0.0))
    axis = KERNEL_SORT_KEYS[sort]
    ranked = sorted(rows.values(),
                    key=lambda r: (-r[axis], r["device"], r["kernel"]))
    return ranked[:top] if top else ranked


def format_metric_kernel_table(rows: Sequence[dict],
                               sort: str = "virtual") -> str:
    """Aligned table for :func:`kernel_rows_from_metrics` output."""
    header = (f"{'device':<24}{'kernel':<26}{'seconds':>11}"
              f"{'gflops':>10}{'MB':>10}{'launches':>10}")
    lines = [f"kernel breakdown (sorted by {sort}):", header,
             "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['device']:<24}{row['kernel']:<26}"
            f"{row['seconds']:>10.4f}s{row['flops'] / 1e9:>10.3f}"
            f"{row['bytes'] / 1e6:>10.2f}{int(row['launches']):>10}")
    return "\n".join(lines)
