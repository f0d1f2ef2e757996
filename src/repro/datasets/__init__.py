"""The six benchmark datasets (Table 1), built synthetically at reduced scale.

Each dataset module reproduces its real counterpart's *shape*: logical
node/edge counts from Table 1 (used by the cost and memory models), feature
dimensionality, class count, single- vs multi-label task, split fractions,
relative density, and community structure.  Actual array sizes are scaled
down to fit the test machine; the :class:`~repro.graph.GraphStats` record
carries the paper-scale numbers.
"""

from repro.datasets.base import DatasetSpec, build_dataset, clear_cache
from repro.datasets.registry import (
    DATASET_NAMES,
    dataset_spec,
    get_dataset,
    list_datasets,
)

__all__ = [
    "DATASET_NAMES",
    "DatasetSpec",
    "build_dataset",
    "clear_cache",
    "dataset_spec",
    "get_dataset",
    "list_datasets",
]
