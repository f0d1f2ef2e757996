"""A numpy-backed reverse-mode autograd engine (the PyTorch substitute).

Every tensor op runs real numpy math *and* charges simulated time to the
device the tensor lives on, scaled by the framework profile that is active
(see :mod:`repro.tensor.context`), whose ``cost_only`` switch keeps the
charge and skips the math.  Gradients are exact; tests verify them
against finite differences.
"""

from repro.tensor.context import (
    CostProfile,
    GENERIC_PROFILE,
    active_profile,
    charge,
    use_profile,
)
from repro.tensor.tensor import Tensor, no_grad
from repro.tensor import functional
from repro.tensor.module import Module, Parameter, Linear, Dropout
from repro.tensor.optim import Adam, Optimizer
from repro.tensor.schedule import CosineLR, clip_grad_norm
from repro.tensor import init

__all__ = [
    "Adam",
    "CosineLR",
    "CostProfile",
    "clip_grad_norm",
    "Dropout",
    "GENERIC_PROFILE",
    "Linear",
    "Module",
    "Optimizer",
    "Parameter",
    "Tensor",
    "active_profile",
    "charge",
    "functional",
    "init",
    "no_grad",
    "use_profile",
]
