"""Simulated compute devices and the kernel cost model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.hardware.memory import MemoryLedger
from repro.hardware.specs import DeviceSpec
from repro.simtime import VirtualClock
from repro.telemetry import runtime as telemetry


@dataclass(frozen=True)
class KernelCost:
    """The work performed by one kernel invocation.

    ``flops`` and ``bytes_moved`` are *logical* quantities (paper-scale work,
    not the scaled-down arrays actually computed on).  ``compute_eff`` and
    ``memory_eff`` come from the framework profile and express how close the
    framework's implementation of this kernel gets to the device's peak.
    ``launches`` lets a single call account for a whole loop of small kernel
    launches (PyG's unfused per-hop ops, Python-loop samplers, ...).
    """

    name: str
    flops: float = 0.0
    bytes_moved: float = 0.0
    compute_eff: float = 1.0
    memory_eff: float = 1.0
    launches: int = 1
    fixed_time: float = 0.0  # extra constant seconds (e.g. format conversion setup)

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0:
            raise ValueError(f"kernel {self.name}: negative work")
        if not (0 < self.compute_eff <= 1.0) or not (0 < self.memory_eff <= 1.0):
            raise ValueError(f"kernel {self.name}: efficiency must be in (0, 1]")
        if self.launches < 1:
            raise ValueError(f"kernel {self.name}: launches must be >= 1")


@dataclass
class DeviceCounters:
    """Aggregate activity counters for one device."""

    kernels: int = 0
    flops: float = 0.0
    bytes_moved: float = 0.0
    busy_seconds: float = 0.0
    by_kernel: Dict[str, float] = field(default_factory=dict)

    def record(self, cost: KernelCost, seconds: float) -> None:
        self.kernels += cost.launches
        self.flops += cost.flops
        self.bytes_moved += cost.bytes_moved
        self.busy_seconds += seconds
        self.by_kernel[cost.name] = self.by_kernel.get(cost.name, 0.0) + seconds


class Device:
    """A compute device that executes kernels against the roofline model.

    Executing a kernel advances the machine's virtual clock and marks this
    device busy for the kernel's duration, which is what the power rails
    integrate over.
    """

    def __init__(self, spec: DeviceSpec, clock: VirtualClock) -> None:
        self.spec = spec
        self.clock = clock
        self.memory = MemoryLedger(spec.name, spec.mem_capacity)
        self.counters = DeviceCounters()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def kind(self) -> str:
        return self.spec.kind

    def kernel_time(self, cost: KernelCost) -> float:
        """Roofline duration of one kernel invocation, without side effects."""
        compute_t = cost.flops / (self.spec.peak_flops * cost.compute_eff)
        memory_t = cost.bytes_moved / (self.spec.mem_bandwidth * cost.memory_eff)
        return (
            cost.launches * self.spec.kernel_launch_overhead
            + max(compute_t, memory_t)
            + cost.fixed_time
        )

    def execute(self, cost: KernelCost) -> float:
        """Run a kernel: advance the clock, mark busy, update counters."""
        seconds = self.kernel_time(cost)
        self.clock.occupy(self.name, seconds, tag=cost.name)
        self.counters.record(cost, seconds)
        registry = telemetry.metrics()
        if registry is not None:
            labels = {"device": self.name, "kernel": cost.name}
            registry.counter("kernel.invocations", **labels).inc(cost.launches)
            if seconds:
                registry.counter("kernel.busy_seconds", **labels).inc(seconds)
            if cost.flops:
                registry.counter("kernel.flops", **labels).inc(cost.flops)
            if cost.bytes_moved:
                registry.counter("kernel.bytes_moved", **labels).inc(cost.bytes_moved)
        return seconds

    def busy_fraction(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Fraction of [start, end) this device spent busy."""
        if end is None:
            end = self.clock.now
        span = end - start
        if span <= 0:
            return 0.0
        return self.clock.busy_time(self.name, start, end) / span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.spec.name}, kind={self.spec.kind})"
