"""CodeCarbon-style energy monitor over the virtual clock.

The paper runs CodeCarbon with a 0.1 s sampling interval (instead of the
15 s default).  This monitor reproduces the tool's measurement structure:
it registers a clock listener, takes a reading every ``interval`` virtual
seconds, accumulates CPU energy from the RAPL counter delta and GPU energy
from (NVML instant power x interval), and reports totals and averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.hardware.machine import Machine
from repro.power.meter import NvmlMeter, PowerSample, RaplMeter


@dataclass(frozen=True)
class EnergyReport:
    """Measured energy/power for one monitored window."""

    duration: float  # seconds
    cpu_energy: float  # joules
    gpu_energy: float  # joules
    samples: int
    cpu_power_trace: tuple = ()
    gpu_power_trace: tuple = ()

    @property
    def total_energy(self) -> float:
        return self.cpu_energy + self.gpu_energy

    @property
    def avg_power(self) -> float:
        return self.total_energy / self.duration if self.duration > 0 else 0.0

    @property
    def peak_power(self) -> float:
        """Peak combined draw across aligned CPU+GPU samples (watts)."""
        if not self.cpu_power_trace and not self.gpu_power_trace:
            return 0.0
        combined = {}
        for sample in self.cpu_power_trace:
            combined[sample.time] = combined.get(sample.time, 0.0) + sample.watts
        for sample in self.gpu_power_trace:
            combined[sample.time] = combined.get(sample.time, 0.0) + sample.watts
        return max(combined.values())

    def cpu_power_stats(self) -> dict:
        """avg/p50/p95/peak of the CPU rail (watts)."""
        return _power_stats(self.cpu_power_trace)

    def gpu_power_stats(self) -> dict:
        """avg/p50/p95/peak of the GPU rail (watts)."""
        return _power_stats(self.gpu_power_trace)


def _power_stats(trace: tuple) -> dict:
    """Summary statistics over one rail's power samples.

    Percentiles use the nearest-rank method on the sorted sample power
    values, so the result is always an observed sample (deterministic,
    no interpolation).
    """
    if not trace:
        return {"avg": 0.0, "p50": 0.0, "p95": 0.0, "peak": 0.0}
    watts = sorted(sample.watts for sample in trace)
    n = len(watts)

    def rank(q: float) -> float:
        return watts[min(n - 1, max(0, math.ceil(q * n) - 1))]

    return {
        "avg": sum(watts) / n,
        "p50": rank(0.50),
        "p95": rank(0.95),
        "peak": watts[-1],
    }


class EnergyMonitor:
    """Samples device power every ``interval`` virtual seconds.

    Usage mirrors CodeCarbon's tracker::

        monitor = EnergyMonitor(machine, interval=0.1)
        monitor.start()
        ...  # run the workload (advances the virtual clock)
        report = monitor.stop()
    """

    def __init__(self, machine: Machine, interval: float = 0.1) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.machine = machine
        self.interval = interval
        self.rapl = RaplMeter(machine.clock, machine.cpu)
        self.nvml: Optional[NvmlMeter] = (
            NvmlMeter(machine.clock, machine.gpu, window=interval)
            if machine.gpu is not None
            else None
        )
        self._running = False
        self._start_time = 0.0
        self._last_sample_time = 0.0
        self._cpu_energy = 0.0
        self._gpu_energy = 0.0
        self._samples = 0
        self._cpu_trace: List[PowerSample] = []
        self._gpu_trace: List[PowerSample] = []

    def start(self) -> None:
        if self._running:
            raise RuntimeError("EnergyMonitor already running")
        self._running = True
        self._start_time = self.machine.clock.now
        self._last_sample_time = self._start_time
        self._cpu_energy = 0.0
        self._gpu_energy = 0.0
        self._samples = 0
        self._cpu_trace = []
        self._gpu_trace = []
        self.machine.clock.add_listener(self._on_advance)

    def _take_samples(self, times: np.ndarray) -> None:
        """Read both meters at every instant of ``times`` (ascending)."""
        spans = np.diff(np.concatenate(([self._last_sample_time], times)))
        rapl = self.rapl.energy_between(self._start_time, times)
        cpu_watts = np.divide(np.diff(np.concatenate(([self._cpu_energy], rapl))),
                              spans, out=np.zeros(len(times)), where=spans > 0)
        self._cpu_energy = float(rapl[-1])
        instants = times.tolist()
        self._cpu_trace.extend(map(PowerSample, instants, cpu_watts.tolist()))
        if self.nvml is not None:
            gpu_watts = self.nvml.instant_power(times)
            # Accumulated sample by sample, left to right, like the tool.
            self._gpu_energy = float(np.concatenate(
                ([self._gpu_energy], gpu_watts * spans)).cumsum()[-1])
            self._gpu_trace.extend(map(PowerSample, instants, gpu_watts.tolist()))
        self._samples += len(instants)
        self._last_sample_time = instants[-1]

    def _on_advance(self, old_now: float, new_now: float) -> None:
        # Fire a sample at every interval boundary crossed by this advance.
        # Instants are the recurrence t_k = t_(k-1) + interval (a cumsum),
        # not last + k * interval, which differs in the last bit.
        while self._last_sample_time + self.interval <= new_now:
            crossed = int((new_now - self._last_sample_time) / self.interval) + 1
            due = np.array([self._last_sample_time]
                           + [self.interval] * crossed).cumsum()[1:]
            self._take_samples(due[:due.searchsorted(new_now, side="right")])

    def stop(self) -> EnergyReport:
        if not self._running:
            raise RuntimeError("EnergyMonitor not running")
        self.machine.clock.remove_listener(self._on_advance)
        self._running = False
        end = self.machine.clock.now
        if end > self._last_sample_time:
            self._take_samples(np.array([end]))
        duration = end - self._start_time
        return EnergyReport(
            duration=duration,
            cpu_energy=self._cpu_energy,
            gpu_energy=self._gpu_energy,
            samples=self._samples,
            cpu_power_trace=tuple(self._cpu_trace),
            gpu_power_trace=tuple(self._gpu_trace),
        )
