"""Execution context: which cost profile charges tensor ops.

The paper's core finding is that *the same mathematical kernel* runs at
very different efficiency in DGL vs PyG (Observations 2, 3, 5).  We express
that with :class:`CostProfile`: a set of roofline efficiency factors per
(op family, device kind).  Framework packages activate their profile with
:func:`use_profile`; plain tensor math outside any framework uses
:data:`GENERIC_PROFILE`.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import AutogradError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hardware.device import Device


@dataclass(frozen=True)
class CostProfile:
    """Roofline efficiency factors for one framework implementation.

    ``efficiencies`` maps ``(op_family, device_kind)`` to
    ``(compute_eff, memory_eff)``.  Missing entries fall back to
    ``default_eff``.  ``op_overhead`` maps ``(op_family, device_kind)`` to
    extra fixed seconds per call (framework dispatch cost).
    """

    name: str
    default_eff: Tuple[float, float] = (0.5, 0.6)
    efficiencies: Dict[Tuple[str, str], Tuple[float, float]] = field(default_factory=dict)
    op_overhead: Dict[Tuple[str, str], float] = field(default_factory=dict)
    # Per-call framework dispatch overhead (seconds), charged on every op.
    dispatch_overhead: float = 0.0

    def eff(self, family: str, device_kind: str) -> Tuple[float, float]:
        return self.efficiencies.get((family, device_kind), self.default_eff)

    def overhead(self, family: str, device_kind: str) -> float:
        return self.dispatch_overhead + self.op_overhead.get((family, device_kind), 0.0)


#: Profile used when no framework is active (bare tensor math in tests).
GENERIC_PROFILE = CostProfile(name="generic")

_active_profile: contextvars.ContextVar[CostProfile] = contextvars.ContextVar(
    "repro_active_profile", default=GENERIC_PROFILE
)

#: Families used by the dense tensor engine.  Sparse/graph kernels add
#: their own families (``spmm``, ``sddmm``, ``scatter``, ``sample``...).
DENSE_FAMILIES = ("gemm", "elementwise", "reduce", "index")


def active_profile() -> CostProfile:
    """The cost profile charging ops in the current context."""
    return _active_profile.get()


@contextmanager
def use_profile(profile: CostProfile) -> Iterator[CostProfile]:
    """Activate ``profile`` for ops executed inside the block."""
    token = _active_profile.set(profile)
    try:
        yield profile
    finally:
        _active_profile.reset(token)


_cost_only = False


@contextmanager
def cost_only() -> Iterator[None]:
    """Run the enclosed forward ops for their cost alone.

    Every op charges its kernel and allocates its output on the device
    ledger as executing it would, but its output data is a
    :func:`placeholder`: no op computes a value nobody reads.  Sparse
    structure (``SparseAdj``, self-loops, degree-derived edge weights),
    parameters and RNG streams stay real.  Forward only: a placeholder has
    no gradient, so entering with grad enabled raises ``AutogradError``.
    """
    global _cost_only
    from repro.tensor import tensor  # local: tensor imports this module

    if tensor._grad_enabled:
        raise AutogradError("cost_only() is forward-only: enter it under no_grad()")
    previous, _cost_only = _cost_only, True
    try:
        yield
    finally:
        _cost_only = previous


def cost_only_active() -> bool:
    """True inside :func:`cost_only`: ops return placeholders."""
    return _cost_only


def placeholder(shape: Tuple[int, ...]) -> np.ndarray:
    """A cost-only op's output: zero-stride, read-only float32 zeros.

    Its ``nbytes`` is the executed array's, so the ledger allocation is
    unchanged; an op that lacks its shape rule and writes into it fails.
    """
    return np.broadcast_to(np.float32(0), shape)


def charge(
    device: Optional["Device"],
    name: str,
    family: str,
    flops: float = 0.0,
    bytes_moved: float = 0.0,
    scale: float = 1.0,
    launches: int = 1,
) -> None:
    """Charge one kernel's cost to ``device`` under the active profile.

    ``scale`` is the logical/actual work multiplier carried by tensors built
    from scaled-down datasets; no-op when ``device`` is None (pure math).
    """
    if device is None:
        return
    from repro.hardware.device import KernelCost  # local: avoid import cycle

    profile = active_profile()
    compute_eff, memory_eff = profile.eff(family, device.kind)
    device.execute(
        KernelCost(
            name=name,
            flops=flops * scale,
            bytes_moved=bytes_moved * scale,
            compute_eff=compute_eff,
            memory_eff=memory_eff,
            launches=launches,
            fixed_time=profile.overhead(family, device.kind),
        )
    )
