"""Tests for device specs, the roofline cost model, and the machine."""

import pytest

from repro.errors import DeviceError
from repro.hardware.device import Device, KernelCost
from repro.hardware.machine import Machine, paper_testbed
from repro.hardware.specs import CpuSpec, DeviceSpec, GpuSpec, LinkSpec, PAPER_CPU, PAPER_GPU, PAPER_PCIE
from repro.simtime import VirtualClock


class TestSpecs:
    def test_paper_cpu_matches_testbed(self):
        assert PAPER_CPU.sockets == 2
        assert PAPER_CPU.cores_per_socket == 10
        assert PAPER_CPU.mem_capacity == 64 * 2**30

    def test_paper_gpu_is_rtx8000(self):
        assert PAPER_GPU.mem_capacity == 48 * 2**30
        assert PAPER_GPU.kind == "gpu"

    def test_invalid_power_ordering_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec("bad", "cpu", 1e9, 1e9, 1, 0.0, idle_power=100.0, busy_power=50.0)

    def test_nonpositive_rates_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpec("bad", "cpu", 0.0, 1e9, 1, 0.0, 1.0, 2.0)

    def test_link_requires_positive_bandwidth(self):
        with pytest.raises(ValueError):
            LinkSpec("bad", bandwidth=0.0, latency=0.0)


class TestKernelCost:
    def test_rejects_negative_work(self):
        with pytest.raises(ValueError):
            KernelCost("k", flops=-1.0)

    def test_rejects_out_of_range_efficiency(self):
        with pytest.raises(ValueError):
            KernelCost("k", compute_eff=0.0)
        with pytest.raises(ValueError):
            KernelCost("k", memory_eff=1.5)

    def test_rejects_zero_launches(self):
        with pytest.raises(ValueError):
            KernelCost("k", launches=0)


class TestRoofline:
    def test_compute_bound_kernel(self):
        device = Device(PAPER_CPU, VirtualClock())
        cost = KernelCost("gemm", flops=PAPER_CPU.peak_flops, compute_eff=1.0,
                          memory_eff=1.0)
        # 1 second of peak compute plus launch overhead.
        assert device.kernel_time(cost) == pytest.approx(
            1.0 + PAPER_CPU.kernel_launch_overhead
        )

    def test_memory_bound_kernel(self):
        device = Device(PAPER_CPU, VirtualClock())
        cost = KernelCost("copy", bytes_moved=PAPER_CPU.mem_bandwidth, memory_eff=1.0)
        assert device.kernel_time(cost) == pytest.approx(
            1.0 + PAPER_CPU.kernel_launch_overhead
        )

    def test_max_of_compute_and_memory(self):
        device = Device(PAPER_CPU, VirtualClock())
        slow_mem = KernelCost("k", flops=1e6, bytes_moved=PAPER_CPU.mem_bandwidth,
                              memory_eff=1.0, compute_eff=1.0)
        assert device.kernel_time(slow_mem) > 0.99

    def test_efficiency_scales_time(self):
        device = Device(PAPER_CPU, VirtualClock())
        full = device.kernel_time(KernelCost("k", flops=1e12, compute_eff=1.0))
        half = device.kernel_time(KernelCost("k", flops=1e12, compute_eff=0.5))
        assert half == pytest.approx(2 * full - PAPER_CPU.kernel_launch_overhead, rel=1e-3)

    def test_launches_multiply_overhead(self):
        device = Device(PAPER_CPU, VirtualClock())
        one = device.kernel_time(KernelCost("k", launches=1))
        ten = device.kernel_time(KernelCost("k", launches=10))
        assert ten == pytest.approx(10 * one)

    def test_execute_advances_clock_and_counters(self):
        clock = VirtualClock()
        device = Device(PAPER_CPU, clock)
        seconds = device.execute(KernelCost("k", flops=1e9))
        assert clock.now == pytest.approx(seconds)
        assert device.counters.kernels == 1
        assert device.counters.flops == pytest.approx(1e9)
        assert device.counters.by_kernel["k"] == pytest.approx(seconds)


class TestMachine:
    def test_device_lookup(self, machine):
        assert machine.device("cpu") is machine.cpu
        assert machine.device("gpu") is machine.gpu

    def test_unknown_device_rejected(self, machine):
        with pytest.raises(DeviceError):
            machine.device("tpu")

    def test_negative_storage_read_rejected(self, machine):
        with pytest.raises(ValueError, match="negative read size"):
            machine.read_storage(-1)
        assert machine.clock.now == 0.0

    def test_cpu_only_machine_has_no_gpu(self):
        machine = Machine(gpu_spec=None)
        assert machine.gpu is None
        with pytest.raises(DeviceError):
            machine.device("gpu")

    def test_storage_read_time(self, machine):
        seconds = machine.read_storage(machine.storage.read_bandwidth)
        assert seconds == pytest.approx(1.0 + machine.storage.seek_latency)
        assert machine.clock.now == pytest.approx(seconds)

    def test_power_draw_idle_and_busy(self, machine):
        idle = machine.power_draw("cpu", 0.0, 1.0)
        assert idle == pytest.approx(machine.cpu.spec.idle_power)
        machine.cpu.execute(KernelCost("k", fixed_time=1.0))
        busy = machine.power_draw("cpu", 0.0, machine.clock.now)
        assert busy > idle

    def test_energy_is_power_times_time(self, machine):
        machine.clock.advance(2.0)
        energy = machine.energy("cpu", 0.0, 2.0)
        assert energy == pytest.approx(2.0 * machine.cpu.spec.idle_power)

    def test_fresh_machines_do_not_share_clocks(self):
        a, b = paper_testbed(), paper_testbed()
        a.clock.advance(5.0)
        assert b.clock.now == 0.0


class TestAlternativeTestbeds:
    def test_laptop_testbed_specs(self):
        from repro.hardware.machine import laptop_testbed
        machine = laptop_testbed()
        assert machine.gpu.spec.mem_capacity == 6 * 2**30
        assert machine.cpu.spec.peak_flops < PAPER_CPU.peak_flops
        assert machine.cpu.spec.idle_power < PAPER_CPU.idle_power

    def test_laptop_machine_is_independent(self):
        from repro.hardware.machine import laptop_testbed
        a, b = laptop_testbed(), paper_testbed()
        a.clock.advance(1.0)
        assert b.clock.now == 0.0
