"""Weight initializers (Glorot/Xavier and friends).

Both DGL and PyG default to Glorot initialization for conv-layer weights;
using the same initializer keeps the two framework implementations
numerically comparable.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.tensor.tensor import FLOAT_DTYPE


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def xavier_uniform(shape: Tuple[int, ...], gain: float = 1.0,
                   seed: Optional[int] = None) -> np.ndarray:
    """Glorot uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return _rng(seed).uniform(-bound, bound, size=shape).astype(FLOAT_DTYPE)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=FLOAT_DTYPE)


def uniform_bias(fan_in: int, size: int, seed: Optional[int] = None) -> np.ndarray:
    """torch.nn.Linear's default bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return _rng(seed).uniform(-bound, bound, size=size).astype(FLOAT_DTYPE)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a 0-d shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[0] * receptive, shape[1] * receptive
