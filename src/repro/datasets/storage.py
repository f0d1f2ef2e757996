"""On-disk dataset storage (.npz + JSON stats sidecar).

The paper's "data loading" phase reads the raw dataset from storage and
builds a framework graph object.  To make that a real, measurable step we
serialize graphs to disk and read them back; the *charged* read cost uses
the logical byte sizes so loading Reddit costs like loading 115 M edges.
"""

from __future__ import annotations

import io
import json
import zipfile
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.artifacts import atomic_write
from repro.errors import DatasetError
from repro.graph.formats import AdjacencyCSR
from repro.graph.graph import Graph, GraphStats, Split

_FORMAT_VERSION = 1


def save_graph(graph: Graph, directory: Union[str, Path]) -> Path:
    """Serialize ``graph`` into ``directory`` (arrays + stats sidecar)."""
    directory = Path(directory)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        indptr=graph.adj.indptr,
        indices=graph.adj.indices,
        features=graph.features,
        labels=graph.labels,
        train_mask=graph.train_mask,
        val_mask=graph.val_mask,
        test_mask=graph.test_mask,
    )
    atomic_write(directory / "arrays.npz", buffer.getvalue())
    stats = asdict(graph.stats)
    stats["_format_version"] = _FORMAT_VERSION
    atomic_write(directory / "stats.json", json.dumps(stats, indent=2))
    return directory


#: Failure modes of reading a damaged/truncated ``arrays.npz``: a torn
#: zip container, a corrupted deflate stream, a short read, or numpy
#: refusing the payload.
_NPZ_READ_ERRORS = (zipfile.BadZipFile, zlib.error, OSError, EOFError,
                    ValueError)


def load_graph(directory: Union[str, Path]) -> Graph:
    """Load a graph previously written by :func:`save_graph`.

    Damaged files — a torn write truncating ``arrays.npz``, corrupted
    or incomplete ``stats.json`` — surface as :class:`DatasetError`
    naming the offending path, never as raw ``zipfile``/``json``/
    ``KeyError`` internals.
    """
    directory = Path(directory)
    stats_path = directory / "stats.json"
    arrays_path = directory / "arrays.npz"
    if not stats_path.exists() or not arrays_path.exists():
        raise DatasetError(f"no stored dataset at {directory}")
    try:
        raw = json.loads(stats_path.read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"corrupted dataset stats {stats_path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise DatasetError(f"corrupted dataset stats {stats_path}: not an object")
    version = raw.pop("_format_version", None)
    if version != _FORMAT_VERSION:
        raise DatasetError(f"unsupported dataset format version {version}")
    try:
        split = Split(**raw.pop("split"))
        stats = GraphStats(split=split, **raw)
    except (KeyError, TypeError) as exc:
        raise DatasetError(f"malformed dataset stats {stats_path}: {exc}") from exc
    try:
        arrays_file = np.load(arrays_path)
    except _NPZ_READ_ERRORS as exc:
        raise DatasetError(f"corrupted dataset arrays {arrays_path}: {exc}") from exc
    with arrays_file as arrays:
        try:
            adj = AdjacencyCSR(
                num_nodes=int(arrays["features"].shape[0]),
                indptr=arrays["indptr"],
                indices=arrays["indices"],
            )
            return Graph(
                adj,
                arrays["features"],
                arrays["labels"],
                arrays["train_mask"],
                arrays["val_mask"],
                arrays["test_mask"],
                stats,
            )
        except KeyError as exc:
            raise DatasetError(
                f"{arrays_path} is missing array {exc} "
                "(incomplete or foreign dataset archive)"
            ) from exc
        except _NPZ_READ_ERRORS as exc:
            raise DatasetError(
                f"corrupted dataset arrays {arrays_path}: {exc}") from exc


def stored_nbytes(stats: GraphStats) -> int:
    """Logical on-disk footprint charged when loading this dataset."""
    return stats.feature_nbytes() + stats.structure_nbytes() + stats.label_nbytes()
