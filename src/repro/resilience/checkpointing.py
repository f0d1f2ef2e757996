"""RNG-state capture for bit-identical crash–resume.

A resumed run replays the exact batches and dropout masks the killed run
would have produced, which requires checkpointing every generator the
training loop consumes: the sampler's ``np.random.Generator`` (batch
order + neighbor draws) and each ``Dropout`` module's private generator.
``Generator.bit_generator.state`` is a plain nested dict of ints, so it
round-trips through the checkpoint's JSON manifest untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.tensor.module import Module


def _module_generators(model: Module) -> List[np.random.Generator]:
    """Per-module private generators, in deterministic traversal order."""
    found = []
    for module in model.modules():
        rng = getattr(module, "_rng", None)
        if isinstance(rng, np.random.Generator):
            found.append(rng)
    return found


def _sampler_generator(sampler) -> Optional[np.random.Generator]:
    algorithm = getattr(sampler, "algorithm", sampler)
    rng = getattr(algorithm, "rng", None)
    return rng if isinstance(rng, np.random.Generator) else None


def capture_rng_states(model: Module, sampler) -> Dict[str, object]:
    """JSON-serializable snapshot of every generator the loop consumes."""
    states: Dict[str, object] = {
        "modules": [rng.bit_generator.state
                    for rng in _module_generators(model)],
    }
    rng = _sampler_generator(sampler)
    if rng is not None:
        states["sampler"] = rng.bit_generator.state
    return states


def restore_rng_states(model: Module, sampler,
                       states: Dict[str, object]) -> None:
    """Restore a :func:`capture_rng_states` snapshot in place."""
    # Imported here: repro.models pulls the frameworks package, which the
    # hardware seams (importers of repro.resilience) sit underneath.
    from repro.models.checkpoint import CheckpointError

    module_states = list(states.get("modules", []))
    generators = _module_generators(model)
    if len(module_states) != len(generators):
        raise CheckpointError(
            f"checkpoint has {len(module_states)} module RNG state(s) but "
            f"the model exposes {len(generators)}; the architecture changed"
        )
    for rng, state in zip(generators, module_states):
        rng.bit_generator.state = state
    sampler_state = states.get("sampler")
    if sampler_state is not None:
        rng = _sampler_generator(sampler)
        if rng is None:
            raise CheckpointError(
                "checkpoint carries a sampler RNG state but the sampler "
                "has no generator to restore it into"
            )
        rng.bit_generator.state = sampler_state
