"""Device power meters modelled after Intel RAPL and NVIDIA NVML."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.hardware.device import Device
from repro.simtime import VirtualClock


class PowerSample(NamedTuple):
    """One instantaneous power reading."""

    time: float  # virtual seconds
    watts: float


def _energy_between(clock: VirtualClock, device: Device,
                    start: float | np.ndarray, end: float | np.ndarray):
    """Exact integral of device power over [start, end) in joules.

    ``end`` (and ``start``) may be arrays: one window per element.
    """
    span = np.maximum(0.0, end - start)
    spec = device.spec
    busy = clock.busy_time(device.name, start, end)
    return spec.idle_power * span + (spec.busy_power - spec.idle_power) * np.minimum(busy, span)


class RaplMeter:
    """CPU energy meter in the style of Intel RAPL.

    RAPL exposes a cumulative energy counter; tools read it at both ends
    of a window and take the difference, which :meth:`energy_between`
    reproduces against the virtual clock.
    """

    def __init__(self, clock: VirtualClock, cpu: Device) -> None:
        if cpu.kind != "cpu":
            raise ValueError("RaplMeter must be attached to a CPU device")
        self.clock = clock
        self.cpu = cpu

    def energy_between(self, start: float, end: float | np.ndarray):
        return _energy_between(self.clock, self.cpu, start, end)


class NvmlMeter:
    """GPU power meter in the style of pynvml.

    NVML exposes instantaneous board power; tools sample it periodically
    and integrate (power x dt).  ``instant_power`` reports power averaged
    over the trailing sampling window, matching how the driver's internal
    averaging smooths kernel-level spikes.
    """

    def __init__(self, clock: VirtualClock, gpu: Device, window: float = 0.1) -> None:
        if gpu.kind != "gpu":
            raise ValueError("NvmlMeter must be attached to a GPU device")
        if window <= 0:
            raise ValueError("window must be positive")
        self.clock = clock
        self.gpu = gpu
        self.window = window

    def instant_power(self, at: float | np.ndarray | None = None):
        """Board power (watts) averaged over the trailing window, at one
        instant (default: now) or at every instant of an array."""
        end = np.asarray(self.clock.now if at is None else at, dtype=float)
        start = np.maximum(0.0, end - self.window)
        spec = self.gpu.spec
        busy = self.clock.busy_time(self.gpu.name, start, end)
        # An empty window (an instant at time zero) reads idle power.
        frac = np.minimum(1.0, np.divide(busy, end - start, out=np.zeros(end.shape),
                                         where=end > start))
        watts = spec.idle_power + frac * (spec.busy_power - spec.idle_power)
        return watts if watts.ndim else float(watts)

    def sample(self) -> PowerSample:
        return PowerSample(self.clock.now, self.instant_power())

    def energy_between(self, start: float, end: float) -> float:
        """Exact energy integral (reference value for tests)."""
        return _energy_between(self.clock, self.gpu, start, end)
