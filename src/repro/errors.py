"""Exception hierarchy for the repro package.

Every error raised by the simulated stack derives from :class:`ReproError`
so callers can catch simulation failures without masking programming bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DeviceError(ReproError):
    """A device-level failure (bad placement, unknown device, ...)."""


class OutOfMemoryError(DeviceError):
    """Simulated device memory exhausted.

    Mirrors a CUDA out-of-memory failure: raised when an allocation would
    push a device's *logical* memory ledger past its capacity.  The paper
    relies on this behaviour — PyG's unfused ChebConv/GATConv/GATv2Conv
    layers OOM on large graphs (Observation 3).
    """

    def __init__(self, device_name: str, requested: int, in_use: int, capacity: int):
        self.device_name = device_name
        self.requested = int(requested)
        self.in_use = int(in_use)
        self.capacity = int(capacity)
        super().__init__(
            f"{device_name}: out of memory "
            f"(requested {requested / 2**30:.2f} GiB, "
            f"in use {in_use / 2**30:.2f} GiB, "
            f"capacity {capacity / 2**30:.2f} GiB)"
        )


class PlacementError(DeviceError):
    """An operation mixed tensors that live on different devices."""


class GraphFormatError(ReproError):
    """An adjacency structure is malformed or in the wrong format."""


class DatasetError(ReproError):
    """A dataset could not be built, stored, or loaded."""


class AutogradError(ReproError):
    """Backward pass invoked in an invalid state."""


class SamplerError(ReproError):
    """A sampler was configured or driven incorrectly."""


class BenchmarkError(ReproError):
    """An experiment harness failure."""


class ResilienceError(ReproError):
    """Base class for the fault-injection / recovery subsystem."""


class FaultPlanError(ResilienceError):
    """A fault plan is malformed (unknown site/kind, bad parameters)."""


class RecoveryExhausted(ResilienceError):
    """An operation kept faulting past its policy's retry budget."""

    def __init__(self, site: str, failures: int):
        self.site = site
        self.failures = int(failures)
        super().__init__(
            f"{site}: still failing after {failures} attempt(s); "
            "retry budget exhausted"
        )
