"""Kernel-family time attribution for the benches.

Every simulated device keeps per-kernel busy-time counters
(:class:`~repro.hardware.device.DeviceCounters`); grouping them by family
explains *why* a framework is slow — e.g. PyG-CPU training time
concentrating in ``scatter_add`` while DGL's concentrates in fused
``spmm``.  The per-(device, kernel) view of a finished run is
``repro profile analyze``'s roofline table.
"""

from __future__ import annotations

from typing import Dict

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
