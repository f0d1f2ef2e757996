"""A single host with several GPUs on a shared interconnect."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.errors import DeviceError
from repro.hardware.device import Device
from repro.hardware.machine import Machine, StorageSpec
from repro.hardware.specs import CpuSpec, GpuSpec, LinkSpec, PAPER_CPU, PAPER_GPU, PAPER_PCIE


@dataclass(frozen=True)
class InterGpuLinkSpec:
    """The GPU<->GPU fabric used by collectives (NVLink-class)."""

    name: str = "nvlink2"
    bandwidth: float = 50e9  # bytes/s per direction
    latency: float = 5e-6  # seconds per ring step


class MultiGpuMachine(Machine):
    """The paper's testbed scaled out to ``num_gpus`` identical GPUs.

    ``machine.gpu`` stays GPU 0 so every single-GPU code path keeps
    working; replicas live in ``machine.gpus``.
    """

    def __init__(
        self,
        num_gpus: int = 2,
        cpu_spec: CpuSpec = PAPER_CPU,
        gpu_spec: GpuSpec = PAPER_GPU,
        link_spec: LinkSpec = PAPER_PCIE,
        inter_gpu: InterGpuLinkSpec = InterGpuLinkSpec(),
        storage_spec: StorageSpec = StorageSpec(),
    ) -> None:
        if num_gpus < 1:
            raise DeviceError("need at least one GPU")
        super().__init__(cpu_spec, gpu_spec, link_spec, storage_spec)
        self.inter_gpu = inter_gpu
        self.gpus: List[Device] = [self.gpu]
        # GPU 0 keeps the base name for compatibility; replicas are -1..k.
        for rank in range(1, num_gpus):
            spec = replace(gpu_spec, name=f"{gpu_spec.name}-{rank}")
            self.gpus.append(Device(spec, self.clock))

    @property
    def num_gpus(self) -> int:
        return len(self.gpus)

    def total_gpu_energy(self, start: float = 0.0, end=None) -> float:
        """Exact energy across all GPUs (integration over busy intervals).

        Replica GPUs are credited as concurrent busy seconds on rank 0's
        train job, so energy here is integrated exactly instead of via the
        sampling monitor.
        """
        if end is None:
            end = self.clock.now
        total = 0.0
        for gpu in self.gpus:
            span = end - start
            busy = self.clock.busy_time(gpu.name, start, end)
            spec = gpu.spec
            total += spec.idle_power * span + (spec.busy_power - spec.idle_power) * busy
        return total


def multi_gpu_testbed(num_gpus: int = 2) -> MultiGpuMachine:
    """The paper's host with ``num_gpus`` RTX 8000s."""
    return MultiGpuMachine(num_gpus=num_gpus)
