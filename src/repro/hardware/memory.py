"""Logical memory accounting for simulated devices.

Dataset arrays in this reproduction are scaled down to fit the container,
but the *memory ledger* tracks allocations at their **logical (paper-scale)
size**, so out-of-memory behaviour matches the paper's 48 GB GPU / 64 GB
host: PyG's unfused ChebConv/GATConv/GATv2Conv layers materialize
``E x F`` per-edge message buffers and blow past 48 GB on Reddit and
ogbn-products (Observation 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict

from repro.errors import OutOfMemoryError
from repro.telemetry import runtime as telemetry


@dataclass
class Allocation:
    """A live allocation on a device."""

    handle: int
    nbytes: int
    label: str


class MemoryLedger:
    """Tracks logical bytes in use on one device and raises on exhaustion."""

    def __init__(self, device_name: str, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.device_name = device_name
        self.capacity = int(capacity)
        self._in_use = 0
        self._peak = 0
        self._live: Dict[int, Allocation] = {}
        self._handles = itertools.count(1)

    @property
    def in_use(self) -> int:
        """Logical bytes currently allocated."""
        return self._in_use

    @property
    def peak(self) -> int:
        """High-water mark of logical bytes allocated."""
        return self._peak

    def alloc(self, nbytes: int, label: str = "") -> Allocation:
        """Allocate ``nbytes`` logical bytes; raise OutOfMemoryError if full."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("cannot allocate negative bytes")
        if self._in_use + nbytes > self.capacity:
            raise OutOfMemoryError(self.device_name, nbytes, self._in_use, self.capacity)
        alloc = Allocation(next(self._handles), nbytes, label)
        self._live[alloc.handle] = alloc
        self._in_use += nbytes
        self._peak = max(self._peak, self._in_use)
        self._record_metrics()
        return alloc

    def release(self, alloc: Allocation) -> None:
        """Free an allocation.

        Idempotent: releasing an allocation twice is a no-op, because
        tensor finalizers may fire after their owner already released it.
        """
        stored = self._live.pop(alloc.handle, None)
        if stored is not None:
            self._in_use -= stored.nbytes
            self._record_metrics()

    def _record_metrics(self) -> None:
        registry = telemetry.metrics()
        if registry is not None:
            registry.gauge("memory.in_use_bytes",
                           device=self.device_name).set(self._in_use)
            registry.gauge("memory.peak_bytes",
                           device=self.device_name).set_max(self._peak)

    def reset_peak(self) -> None:
        self._peak = self._in_use

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemoryLedger({self.device_name}, in_use={self._in_use / 2**30:.2f} GiB,"
            f" capacity={self.capacity / 2**30:.2f} GiB)"
        )
