"""Device specifications calibrated to the paper's testbed.

All experiments in the paper run on a Linux server with dual Intel Xeon
Silver 4114 CPUs @ 2.2 GHz (64 GB RAM) and an NVIDIA Quadro RTX 8000
(48 GB).  The constants below are public datasheet numbers for those parts;
they are the anchor for every simulated runtime.

The cost model is a classic roofline:

    t_kernel = launch_overhead + max(flops / (peak_flops * eff_c),
                                     bytes / (mem_bw * eff_m))

where the efficiency factors ``eff_c``/``eff_m`` come from the *framework
profile* (see :mod:`repro.frameworks.profiles`), because the paper's central
finding is that the same mathematical kernel runs at very different
efficiencies in DGL vs PyG.
"""

from __future__ import annotations

from dataclasses import dataclass

GIB = 2**30
GB = 10**9


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a compute device."""

    name: str
    kind: str  # "cpu" | "gpu"
    peak_flops: float  # single-precision FLOP/s
    mem_bandwidth: float  # bytes/s
    mem_capacity: int  # bytes
    kernel_launch_overhead: float  # seconds per kernel invocation
    idle_power: float  # watts drawn when idle
    busy_power: float  # watts drawn when fully busy

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.mem_bandwidth <= 0:
            raise ValueError(f"{self.name}: peak rates must be positive")
        if self.busy_power < self.idle_power:
            raise ValueError(f"{self.name}: busy power below idle power")


@dataclass(frozen=True)
class CpuSpec(DeviceSpec):
    """CPU-specific spec (sockets/cores drive sampler parallelism)."""

    sockets: int = 2
    cores_per_socket: int = 10
    smt: int = 2


@dataclass(frozen=True)
class GpuSpec(DeviceSpec):
    """GPU-specific spec."""

    sm_count: int = 72


@dataclass(frozen=True)
class LinkSpec:
    """A host<->device interconnect."""

    name: str
    bandwidth: float  # bytes/s, effective
    latency: float  # seconds per transfer
    # Zero-copy (UVA) reads traverse the link per access; effective
    # bandwidth is lower than bulk DMA because accesses are fine-grained.
    uva_bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"{self.name}: bandwidth must be positive")


# Dual Intel Xeon Silver 4114: 2 x 10 cores @ 2.2 GHz, AVX-512.
# Peak SP ~ 2 sockets * 10 cores * 2.2e9 Hz * 32 flops/cycle ~ 1.4 TFLOP/s,
# 6-channel DDR4-2400 per socket ~ 230 GB/s aggregate (115 GB/s each).
PAPER_CPU = CpuSpec(
    name="xeon-silver-4114-x2",
    kind="cpu",
    peak_flops=1.4e12,
    mem_bandwidth=230e9,
    mem_capacity=64 * GIB,
    kernel_launch_overhead=2e-6,  # function-call + threadpool wake-up
    idle_power=60.0,  # two sockets + DRAM at idle
    busy_power=190.0,  # 2 x 85 W TDP + DRAM activity
    sockets=2,
    cores_per_socket=10,
    smt=2,
)

# NVIDIA Quadro RTX 8000 (TU102): 16.3 TFLOP/s SP, 672 GB/s GDDR6, 48 GB.
PAPER_GPU = GpuSpec(
    name="quadro-rtx-8000",
    kind="gpu",
    peak_flops=16.3e12,
    mem_bandwidth=672e9,
    mem_capacity=48 * GIB,
    kernel_launch_overhead=8e-6,  # CUDA launch + framework dispatch
    idle_power=55.0,
    busy_power=260.0,  # 295 W TDP, sustained below
    sm_count=72,
)

# PCIe 3.0 x16: ~16 GB/s raw, ~12 GB/s effective for pageable copies.
# UVA zero-copy access streams at a fraction of DMA bandwidth.
PAPER_PCIE = LinkSpec(
    name="pcie3-x16",
    bandwidth=12e9,
    latency=10e-6,
    uva_bandwidth=9e9,
)

# ----------------------------------------------------------------------
# An alternative laptop-class testbed, used by the hardware-portability
# ablation: do the paper's conclusions survive on consumer hardware?
# ----------------------------------------------------------------------

# 8-core mobile CPU (Ryzen 7 / i7-class): ~0.7 TFLOP/s SP, dual-channel
# DDR4-3200, 16 GB RAM.
LAPTOP_CPU = CpuSpec(
    name="mobile-8core",
    kind="cpu",
    peak_flops=0.7e12,
    mem_bandwidth=50e9,
    mem_capacity=16 * GIB,
    kernel_launch_overhead=2e-6,
    idle_power=15.0,
    busy_power=55.0,
    sockets=1,
    cores_per_socket=8,
    smt=2,
)

# Mobile RTX 3060-class GPU: ~10 TFLOP/s SP, 336 GB/s, 6 GB VRAM — the
# small memory is the interesting part (more OOMs than the RTX 8000).
LAPTOP_GPU = GpuSpec(
    name="mobile-rtx3060",
    kind="gpu",
    peak_flops=10.0e12,
    mem_bandwidth=336e9,
    mem_capacity=6 * GIB,
    kernel_launch_overhead=8e-6,
    idle_power=12.0,
    busy_power=90.0,
    sm_count=30,
)

# Laptop PCIe 4.0 x8-ish effective rates.
LAPTOP_PCIE = LinkSpec(
    name="pcie4-x8",
    bandwidth=10e9,
    latency=12e-6,
    uva_bandwidth=7e9,
)
