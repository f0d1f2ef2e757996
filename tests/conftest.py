"""Shared fixtures: fresh machines, tiny graphs, deterministic RNG."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from repro.datasets.base import DatasetSpec, build_dataset, clear_cache
from repro.graph.graph import Split
from repro.hardware.machine import Machine, paper_testbed
from repro.kernels.adj import SparseAdj
from repro.tensor.tensor import Tensor


@pytest.fixture
def machine() -> Machine:
    """A fresh paper-testbed machine (virtual clock at zero)."""
    return paper_testbed()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def cyclic_garbage():
    """``cyclic_garbage(fn)``: type names of what only the cycle collector
    could free after ``fn()`` ran with the collector switched off.

    The experiment drivers never call ``gc.collect()``: every tensor, and
    the device-ledger allocation its finalizer releases, must go by
    refcount the moment the run drops it.  An empty list is that law.
    """
    def measure(fn):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            fn()
            gc.collect()
            return sorted(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
    return measure


@pytest.fixture
def scale_cell():
    """``scale_cell(artifact, cell_id, factor)``: a deep copy of a sweep
    artifact with one cell's metrics and attribution breakdown scaled by
    ``factor`` — a doctored sweep for the gate tests."""
    def scale(artifact, cell_id, factor):
        doctored = json.loads(json.dumps(artifact))
        (cell,) = [c for c in doctored["cells"] if c["id"] == cell_id]
        cell["metrics"] = {metric: [v * factor for v in values]
                           for metric, values in cell["metrics"].items()}
        for axis in ("phases", "kernel_families"):
            cell["attribution"][axis] = {
                key: v * factor
                for key, v in cell["attribution"][axis].items()}
        return doctored
    return scale


TINY_SPEC = DatasetSpec(
    name="tiny",
    description="Tiny test graph",
    logical_num_nodes=10_000,
    logical_num_edges=80_000,
    num_features=16,
    num_classes=5,
    multilabel=False,
    split=Split(0.6, 0.2, 0.2),
    actual_num_nodes=300,
    actual_num_edges=2400,
    num_communities=5,
    seed=7,
)

TINY_MULTILABEL_SPEC = DatasetSpec(
    name="tiny-ml",
    description="Tiny multilabel test graph",
    logical_num_nodes=8_000,
    logical_num_edges=50_000,
    num_features=12,
    num_classes=6,
    multilabel=True,
    split=Split(0.6, 0.2, 0.2),
    actual_num_nodes=240,
    actual_num_edges=1800,
    num_communities=4,
    seed=8,
)


@pytest.fixture
def tiny_graph():
    """A small but non-trivial graph with paper-style logical scaling."""
    return build_dataset(TINY_SPEC)


@pytest.fixture
def tiny_multilabel_graph():
    return build_dataset(TINY_MULTILABEL_SPEC)


@pytest.fixture
def small_adj(rng) -> SparseAdj:
    """A 40-node random square adjacency without device placement."""
    src = rng.integers(0, 40, 300)
    dst = rng.integers(0, 40, 300)
    return SparseAdj(src, dst, 40, 40)


@pytest.fixture
def small_x(rng) -> Tensor:
    return Tensor(rng.random((40, 8)).astype(np.float32), requires_grad=True)


@pytest.fixture(scope="session")
def telemetry_bundle(tmp_path_factory):
    """One seeded ``--telemetry`` training run, analysed in place:
    ``(dir, ExperimentResult, profile payload)``.  Shared read-only by the
    telemetry, profiler and artifact tests."""
    from repro.bench.harness import run_training_experiment
    from repro.profiling.analysis import analyze_run_dir

    out = tmp_path_factory.mktemp("telemetry")
    result = run_training_experiment(
        "dglite", "ppi", "graphsage", epochs=2,
        representative_batches=2, seed=0, telemetry_dir=str(out),
    )
    _, payload = analyze_run_dir(out)
    return out, result, payload


@pytest.fixture(autouse=True)
def _keep_dataset_cache_bounded():
    """Datasets are cached in-process; tests share the cache but never
    mutate graphs, so only clear when a test explicitly asks (see
    ``clear_cache`` import in test modules)."""
    yield


def finite_difference(f, array: np.ndarray, index, eps: float = 1e-3) -> float:
    """Central finite difference of scalar-valued ``f`` at one element."""
    perturbed = array.copy()
    perturbed[index] += eps
    up = f(perturbed)
    perturbed[index] -= 2 * eps
    down = f(perturbed)
    return (up - down) / (2 * eps)
