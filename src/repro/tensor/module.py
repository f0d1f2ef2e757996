"""Neural-network module system: Parameter, Module, Linear, containers."""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.tensor import init
from repro.tensor.tensor import Tensor
from repro.tensor import functional as F


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data, device=None) -> None:
        super().__init__(data, device=device, requires_grad=True)


class Module:
    """Base class for layers and models.

    Tracks parameters and submodules by attribute assignment, exposes
    ``parameters()`` / ``named_parameters()``, train/eval mode, device
    movement, and state dicts — the subset of the torch API the paper's
    model code relies on.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def to(self, device, link=None) -> "Module":
        """Move all parameters to ``device``.

        When ``link`` (an :class:`~repro.hardware.Interconnect`) is given,
        the copy is charged as a host->device transfer — this is the
        "initial model movement" component of the paper's data-movement
        phase.
        """
        for name, param in list(self._parameters.items()):
            moved = _move_tensor(param, device, link)
            self._parameters[name] = moved
            object.__setattr__(self, name, moved)
        for child in self._modules.values():
            child.to(device, link=link)
        return self


def _move_tensor(param: Parameter, device, link) -> Parameter:
    if param.device is device:
        return param
    if link is not None and device is not None:
        link.h2d(param.logical_nbytes, tag="model-weights")
    fresh = Parameter(param.data.copy(), device=device)
    fresh.work_scale = param.work_scale
    return fresh


class Linear(Module):
    """Dense layer ``y = x W + b`` with torch-default initialization."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 device=None, seed: Optional[int] = None) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), seed=seed),
                                device=device)
        if bias:
            bias_seed = None if seed is None else seed + 1
            self.bias = Parameter(init.uniform_bias(in_features, out_features, seed=bias_seed),
                                  device=device)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Dropout layer with its own deterministic RNG stream."""

    def __init__(self, p: float = 0.5, seed: Optional[int] = None) -> None:
        super().__init__()
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, p=self.p, training=self.training, rng=self._rng)
