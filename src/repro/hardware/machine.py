"""The simulated machine: CPU + GPU + PCIe + storage on one virtual clock."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import DeviceError
from repro.hardware.device import Device
from repro.hardware.interconnect import Interconnect
from repro.hardware.specs import (
    CpuSpec,
    GpuSpec,
    LinkSpec,
    PAPER_CPU,
    PAPER_GPU,
    PAPER_PCIE,
)
from repro.resilience import runtime as resilience
from repro.simtime import VirtualClock
from repro.telemetry import runtime as telemetry


@dataclass(frozen=True)
class StorageSpec:
    """Local storage the data loader reads datasets from."""

    name: str = "nvme-ssd"
    read_bandwidth: float = 2.0e9  # bytes/s sequential read
    seek_latency: float = 100e-6  # seconds per file open


class Machine:
    """One experiment testbed: devices, link, storage, shared clock.

    Every benchmark builds a fresh ``Machine`` so that clocks, memory
    ledgers, and counters never leak between experiments.
    """

    def __init__(
        self,
        cpu_spec: CpuSpec = PAPER_CPU,
        gpu_spec: Optional[GpuSpec] = PAPER_GPU,
        link_spec: LinkSpec = PAPER_PCIE,
        storage_spec: StorageSpec = StorageSpec(),
    ) -> None:
        self.clock = VirtualClock()
        self.cpu = Device(cpu_spec, self.clock)
        self.gpu = Device(gpu_spec, self.clock) if gpu_spec is not None else None
        self.pcie = Interconnect(link_spec, self.clock)
        self.storage = storage_spec

    def device(self, name: str) -> Device:
        """Resolve ``"cpu"`` / ``"gpu"`` to the device object."""
        if name == "cpu":
            return self.cpu
        if name == "gpu":
            if self.gpu is None:
                raise DeviceError("this machine has no GPU")
            return self.gpu
        raise DeviceError(f"unknown device {name!r} (expected 'cpu' or 'gpu')")

    def read_storage(self, nbytes: float, tag: str = "storage-read") -> float:
        """Read ``nbytes`` from local storage into host memory.

        This is the ``storage.read`` fault site (``error``, ``torn_write``
        — detected only after the full read — and ``stall``); failures
        retry under the site's recovery policy, on the virtual clock,
        through :func:`repro.resilience.runtime.recover`.
        """
        if nbytes < 0:
            raise ValueError("negative read size")
        seconds = self.storage.seek_latency + nbytes / self.storage.read_bandwidth
        extra = resilience.recover(
            "storage.read", seconds,
            lambda wasted, fault: self.clock.occupy(
                "storage", wasted, tag=f"{tag}!{fault.kind}"),
            self.clock.advance)
        self.clock.occupy("storage", seconds, tag=tag)
        registry = telemetry.metrics()
        if registry is not None:
            registry.counter("storage.bytes_read", tag=tag).inc(nbytes)
            registry.counter("storage.reads", tag=tag).inc()
        return seconds + extra

    def power_draw(self, device_key: str, start: float, end: float) -> float:
        """Average power (watts) of a device over [start, end)."""
        dev = self.device(device_key)
        span = end - start
        if span <= 0:
            return dev.spec.idle_power
        busy = self.clock.busy_time(dev.name, start, end)
        frac = min(1.0, busy / span)
        return dev.spec.idle_power + frac * (dev.spec.busy_power - dev.spec.idle_power)

    def energy(self, device_key: str, start: float, end: float) -> float:
        """Energy (joules) consumed by a device over [start, end)."""
        return self.power_draw(device_key, start, end) * max(0.0, end - start)

    def describe(self) -> Dict[str, object]:
        """Static hardware description for run manifests (``run.json``).

        The offline profile analyses (:mod:`repro.profiling.analysis`)
        join per-kernel flop/byte counters against these peaks to place
        every kernel on the roofline, so the payload must name devices
        exactly as the clock's busy lanes do (``spec.name``).
        """
        devices: Dict[str, object] = {}
        for dev in (self.cpu, self.gpu):
            if dev is None:
                continue
            devices[dev.name] = {
                "kind": dev.kind,
                "peak_flops": dev.spec.peak_flops,
                "mem_bandwidth": dev.spec.mem_bandwidth,
                "mem_capacity": dev.spec.mem_capacity,
                "kernel_launch_overhead": dev.spec.kernel_launch_overhead,
                "idle_power": dev.spec.idle_power,
                "busy_power": dev.spec.busy_power,
            }
        return {
            "devices": devices,
            "link": {
                "name": self.pcie.spec.name,
                "lane": self.pcie.BUSY_KEY,
                "bandwidth": self.pcie.spec.bandwidth,
                "latency": self.pcie.spec.latency,
                "uva_bandwidth": self.pcie.spec.uva_bandwidth,
            },
            "storage": {
                "name": self.storage.name,
                "lane": "storage",
                "read_bandwidth": self.storage.read_bandwidth,
                "seek_latency": self.storage.seek_latency,
            },
        }


def paper_testbed() -> Machine:
    """A fresh machine matching the paper's hardware configuration."""
    return Machine(PAPER_CPU, PAPER_GPU, PAPER_PCIE)


def laptop_testbed() -> Machine:
    """A consumer laptop (8-core mobile CPU, 6 GB mobile GPU).

    Used by the hardware-portability ablation: weaker compute, far less
    device memory, much lower power draw than the paper's server.
    """
    from repro.hardware.specs import LAPTOP_CPU, LAPTOP_GPU, LAPTOP_PCIE

    return Machine(LAPTOP_CPU, LAPTOP_GPU, LAPTOP_PCIE)
