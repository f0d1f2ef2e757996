"""Host <-> device interconnect: bulk DMA copies and UVA zero-copy reads."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import DeviceError
from repro.hardware.specs import LinkSpec
from repro.resilience import runtime as resilience
from repro.simtime import VirtualClock
from repro.telemetry import runtime as telemetry


@dataclass
class TransferCounters:
    transfers: int = 0
    bytes_h2d: float = 0.0
    bytes_d2h: float = 0.0
    bytes_uva: float = 0.0
    seconds: float = 0.0
    by_tag: Dict[str, float] = field(default_factory=dict)


class Interconnect:
    """Simulated PCIe link between host memory and device memory.

    Bulk copies (``h2d``/``d2h``) pay per-transfer latency plus bytes over
    DMA bandwidth — this is the "data movement" phase the paper breaks out.
    UVA zero-copy reads (``uva_read``) stream at the lower fine-grained
    bandwidth and are charged to the *GPU* busy time, because the GPU's
    copy engines stall on them during sampling (DGL-UVAGPU case study).
    """

    BUSY_KEY = "pcie"

    def __init__(self, spec: LinkSpec, clock: VirtualClock) -> None:
        self.spec = spec
        self.clock = clock
        self.counters = TransferCounters()

    def transfer_time(self, nbytes: float) -> float:
        """Duration of a bulk DMA copy of ``nbytes`` logical bytes."""
        if nbytes < 0:
            raise ValueError("negative transfer size")
        return self.spec.latency + nbytes / self.spec.bandwidth

    def h2d(self, nbytes: float, tag: str = "h2d") -> float:
        """Copy host -> device; advances the clock.

        The ``transfer.h2d`` fault site: an armed ``stall`` holds the
        link for ``stall_seconds`` extra, an ``error`` (link hiccup /
        failed DMA) wastes ``severity`` of the copy before failing and
        retries under the site's recovery policy
        (:func:`repro.resilience.runtime.recover`).
        """
        return self._dma("h2d", nbytes, tag)

    def d2h(self, nbytes: float, tag: str = "d2h") -> float:
        """Copy device -> host; advances the clock."""
        return self._dma("d2h", nbytes, tag)

    def _dma(self, direction: str, nbytes: float, tag: str) -> float:
        seconds = self.transfer_time(nbytes)
        extra = 0.0
        if direction == "h2d":
            extra = resilience.recover(
                "transfer.h2d", seconds,
                lambda wasted, fault: self._charge(wasted,
                                                   f"{tag}!{fault.kind}"),
                self.clock.advance)
        self._charge(seconds, tag)
        self.counters.transfers += 1
        if direction == "h2d":
            self.counters.bytes_h2d += nbytes
        else:
            self.counters.bytes_d2h += nbytes
        self._record_metrics(direction, tag, nbytes)
        return seconds + extra

    def _charge(self, seconds: float, tag: str) -> None:
        """Hold the link busy: clock interval + link-seconds accounting."""
        self.clock.occupy(self.BUSY_KEY, seconds, tag=tag)
        self.counters.seconds += seconds
        self.counters.by_tag[tag] = self.counters.by_tag.get(tag, 0.0) + seconds

    def _record_metrics(self, direction: str, tag: str, nbytes: float) -> None:
        registry = telemetry.metrics()
        if registry is not None:
            registry.counter("pcie.bytes", direction=direction, tag=tag).inc(nbytes)
            registry.counter("pcie.transfers", direction=direction, tag=tag).inc()
            registry.histogram("pcie.transfer_bytes", direction=direction).observe(nbytes)

    def uva_read_time(self, nbytes: float) -> float:
        """Duration for the GPU to read ``nbytes`` from pinned host memory.

        Asking a non-UVA link is a configuration fault and raises
        :class:`~repro.errors.DeviceError` (like every other hardware
        misuse), so resilience callers can tell it apart from injected
        faults.  Zero-byte reads are free: no transaction is issued, so
        the per-read latency is not charged.
        """
        if nbytes < 0:
            raise ValueError("negative read size")
        if self.spec.uva_bandwidth <= 0:
            raise DeviceError(
                f"{self.spec.name} does not support UVA zero-copy")
        if nbytes == 0:
            return 0.0
        return self.spec.latency + nbytes / self.spec.uva_bandwidth

    def record_uva(self, nbytes: float) -> None:
        """Account UVA traffic (time is charged by the GPU kernel itself)."""
        self.counters.bytes_uva += nbytes
        registry = telemetry.metrics()
        if registry is not None:
            registry.counter("pcie.bytes", direction="uva", tag="uva").inc(nbytes)
