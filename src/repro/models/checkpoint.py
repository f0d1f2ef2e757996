"""Model / optimizer checkpointing.

Saves and restores training state (model parameters, Adam moments, step
counter, RNG-free metadata) to a single ``.npz`` archive whose
``manifest`` entry holds the metadata and parameter list, so long
simulated runs can resume and trained models can ship to the evaluation
or inference stages in a separate process.  The archive is built in
memory and replaces the previous one atomically: an interrupted save
leaves the last complete checkpoint, never a mix of two.
"""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.artifacts import atomic_write
from repro.errors import ReproError
from repro.tensor.module import Module
from repro.tensor.optim import Adam, Optimizer
from repro.tensor.tensor import no_grad

_FORMAT_VERSION = 2

#: Failure modes of reading a damaged/truncated ``.npz``: a torn zip
#: container, a corrupted deflate stream, a short read, or numpy refusing
#: the payload.
_NPZ_READ_ERRORS = (zipfile.BadZipFile, zlib.error, OSError, EOFError,
                    ValueError)


class CheckpointError(ReproError):
    """A checkpoint could not be written or restored."""


def _normalize_path(path: Union[str, Path]) -> Path:
    """The checkpoint file: ``.npz`` appended if absent, as ``np.savez`` does."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_checkpoint(path: Union[str, Path], model: Module,
                    optimizer: Optional[Optimizer] = None,
                    metadata: Optional[Dict] = None) -> Path:
    """Write model (and optionally optimizer) state to ``path``.

    ``path`` should end in ``.npz`` (the suffix is appended otherwise and
    the *normalized* path is returned).
    """
    path = _normalize_path(path)

    arrays: Dict[str, np.ndarray] = {}
    manifest = {"params": [], "optimizer": None,
                "_format_version": _FORMAT_VERSION,
                "metadata": metadata or {}}
    for name, param in model.named_parameters():
        arrays[f"param::{name}"] = param.data
        manifest["params"].append(name)

    if optimizer is not None:
        if isinstance(optimizer, Adam):
            manifest["optimizer"] = {"type": "adam", "lr": optimizer.lr,
                                     "step": optimizer._step_count}
            for i, (m, v) in enumerate(zip(optimizer._m, optimizer._v)):
                if m is not None:
                    arrays[f"adam_m::{i}"] = m
                    arrays[f"adam_v::{i}"] = v
        else:
            manifest["optimizer"] = {"type": type(optimizer).__name__.lower(),
                                     "lr": optimizer.lr}

    buffer = io.BytesIO()
    np.savez(buffer, manifest=np.array(json.dumps(manifest)), **arrays)
    return atomic_write(path, buffer.getvalue())


def load_checkpoint(path: Union[str, Path], model: Module,
                    optimizer: Optional[Optimizer] = None) -> Dict:
    """Restore state saved by :func:`save_checkpoint`; returns metadata."""
    path = _normalize_path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        with np.load(path) as archive:
            manifest = json.loads(str(archive["manifest"]))
            arrays = {key: archive[key] for key in archive.files
                      if key != "manifest"}
    except KeyError as exc:
        raise CheckpointError(f"{path} has no manifest (not a checkpoint "
                              f"of format {_FORMAT_VERSION})") from exc
    except _NPZ_READ_ERRORS as exc:
        raise CheckpointError(f"corrupted checkpoint {path}: {exc}") from exc
    if manifest.get("_format_version") != _FORMAT_VERSION:
        raise CheckpointError("unsupported checkpoint format version")

    own = dict(model.named_parameters())
    saved = set(manifest["params"])
    if set(own) != saved:
        missing = sorted(set(own) - saved)
        unexpected = sorted(saved - set(own))
        raise CheckpointError(
            f"parameter mismatch: missing={missing}, unexpected={unexpected}"
        )
    with no_grad():
        for name, param in own.items():
            stored = arrays[f"param::{name}"]
            if stored.shape != param.data.shape:
                raise CheckpointError(f"shape mismatch for {name}")
            param.data = stored.astype(param.data.dtype)

    if optimizer is not None and manifest.get("optimizer"):
        info = manifest["optimizer"]
        optimizer.lr = info["lr"]
        if isinstance(optimizer, Adam) and info["type"] == "adam":
            optimizer._step_count = info["step"]
            for i in range(len(optimizer.params)):
                key = f"adam_m::{i}"
                if key in arrays:
                    optimizer._m[i] = arrays[key].copy()
                    optimizer._v[i] = arrays[f"adam_v::{i}"].copy()
                else:
                    # Saved before this parameter ever received a
                    # gradient: the moments were never allocated.
                    # Reset rather than keep whatever the target
                    # optimizer accumulated before the restore.
                    optimizer._m[i] = None
                    optimizer._v[i] = None
    return manifest.get("metadata", {})
