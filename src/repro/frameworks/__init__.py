"""The two GNN frameworks under test.

A framework *is* its :class:`~repro.frameworks.profiles.FrameworkProfile`:
``get_framework("dglite")`` models DGL v0.8.2 and
``get_framework("pyglite")`` models PyG v2.0.4 by wrapping
:data:`~repro.frameworks.profiles.DGLITE_PROFILE` /
:data:`~repro.frameworks.profiles.PYGLITE_PROFILE` (whose comments list
the design choices each mirrors) in the same :class:`Framework`.

Both sit on the same substrate (autograd tensors + sparse kernels +
simulated machine) and build their layers from the same zoo
(:mod:`repro.frameworks.nn`); their behavioural differences come
exclusively from the profile — its cost constants, and its
``fused_convs`` set, which decides whether a layer runs its fused kernel
*path* or the gather/scatter one.
"""

from repro.frameworks.base import Framework, FrameworkBatch, FrameworkGraph
from repro.frameworks.profiles import (
    DGLITE_PROFILE,
    FrameworkProfile,
    PROFILES,
    PYGLITE_PROFILE,
    SamplerCosts,
)

_ALIASES = {"dgl": "dglite", "pyg": "pyglite"}


def get_framework(name: str) -> Framework:
    """Instantiate a framework by name ("dglite"/"dgl" or "pyglite"/"pyg")."""
    key = name.lower()
    profile = PROFILES.get(_ALIASES.get(key, key))
    if profile is None:
        raise ValueError(f"unknown framework {name!r} (expected 'dglite' or 'pyglite')")
    return Framework(profile)


__all__ = [
    "DGLITE_PROFILE",
    "Framework",
    "FrameworkBatch",
    "FrameworkGraph",
    "FrameworkProfile",
    "PROFILES",
    "PYGLITE_PROFILE",
    "SamplerCosts",
    "get_framework",
]
