"""Pinned staging buffers for in-flight mini-batches.

A pipelined epoch keeps up to ``depth`` batches alive at once: each one
holds a pinned host staging buffer (subgraph structure + gathered
features + labels, what a real dataloader pins for async H2D) and, once
``CopyTo`` runs, a GPU landing buffer of the same logical size.  Both
are accounted in the device memory ledgers, so a deep pipeline on a
large logical scale hits :class:`repro.errors.OutOfMemoryError` instead
of silently exceeding the VRAM/host budgets — the ledger *is* the
peak assertion.

Real execution is item-sequential, so buffers are retired by position:
when item ``i`` stages, every item ``<= i - depth`` has fully drained in
any valid depth-bounded schedule and its buffers are released.  The
ledger peak therefore reflects the true in-flight concurrency.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.hardware.machine import Machine
from repro.hardware.memory import Allocation
from repro.telemetry import runtime as telemetry


class StagingPool:
    """Depth-bounded pinned host + GPU landing buffers for one epoch."""

    def __init__(self, machine: Machine, depth: int,
                 label: str = "datapipe") -> None:
        if depth < 1:
            raise ValueError("staging depth must be >= 1")
        self.machine = machine
        self.depth = depth
        self.label = label
        self._host: Dict[int, Allocation] = {}
        self._gpu: Dict[int, Allocation] = {}

    @property
    def live_host_bytes(self) -> int:
        return sum(a.nbytes for a in self._host.values())

    def stage_host(self, index: int, nbytes: float) -> None:
        """Pin item ``index``'s staging buffer in host memory."""
        self._retire_drained(index)
        if nbytes > 0:
            self._host[index] = self.machine.cpu.memory.alloc(
                int(nbytes), label=f"{self.label}-staging"
            )
            self._record()

    def stage_gpu(self, index: int, nbytes: float) -> None:
        """Allocate item ``index``'s landing buffer in device memory."""
        gpu = self.machine.gpu
        if gpu is None or nbytes <= 0:
            return
        self._gpu[index] = gpu.memory.alloc(
            int(nbytes), label=f"{self.label}-landing"
        )

    def _retire_drained(self, index: float) -> None:
        """Release buffers of items that any valid schedule has drained."""
        horizon = index - self.depth
        for items, ledger in ((self._host, self.machine.cpu.memory),
                              (self._gpu, getattr(self.machine.gpu, "memory", None))):
            for i in [i for i in items if i <= horizon]:
                ledger.release(items.pop(i))

    def close(self) -> None:
        """End-of-epoch teardown: every in-flight buffer is released."""
        self._retire_drained(math.inf)

    def _record(self) -> None:
        registry = telemetry.metrics()
        if registry is None:
            return
        registry.counter("datapipe.staged_batches").inc()
        registry.gauge("datapipe.staging_in_use_bytes").set(self.live_host_bytes)
