"""The perf-trajectory sweep matrix: kernel × framework × scale.

Following the op-level benchmarking methodology of the Argonne study and
gSuite's framework-independent kernel matrix (PAPERS.md), the sweep
measures a fixed grid of cells through the existing harness drivers:

* ``kernels`` area — one conv-layer forward per cell
  (:func:`~repro.bench.harness.measure_conv_forward`): the op-level view,
  one cell per (framework, conv kind, dataset, logical scale).
* ``training`` area — one short end-to-end training run per cell
  (:func:`~repro.bench.harness.run_training_experiment`): the system view
  the paper's figures report.
* ``serving`` area — one micro-batched online-inference window per cell
  (:func:`~repro.serving.run_serving_experiment`): the serving makespan
  and energy under a fixed seeded trace.

Every cell runs once per seed and records the per-seed virtual seconds
and joules, nothing else.  Both are deterministic functions of
(code, seed), so two sweeps of one tree are byte-identical and the gate
holds a fresh sweep to the committed baseline by equality.  Host time is
not measured here — ``perf/`` owns it.

There is no kernel-schedule axis: each sparse primitive has one
schedule, and its charge depends only on logical edge and node counts,
not on how numpy orders the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.artifacts import build_sweep_artifact
from repro.bench.harness import measure_conv_forward, run_training_experiment
from repro.errors import BenchmarkError

DEFAULT_SEEDS = (0, 1, 2)
_FRAMEWORKS = ("dglite", "pyglite")


@dataclass(frozen=True)
class SweepCell:
    """One point of the sweep matrix."""

    driver: str  # "conv" (kernels area) | "train" (training area)
    framework: str
    kernel: str  # conv kind for "conv", model name for "train"
    dataset: str
    scale: float
    # Training-only axes; the defaults keep pre-existing cell ids stable.
    placement: str = "cpu"
    pipeline: str = "off"

    @property
    def cell_id(self) -> str:
        cid = (f"{self.driver}/{self.framework}/{self.kernel}/"
               f"{self.dataset}/x{self.scale:g}")
        if self.placement != "cpu":
            cid += f"/{self.placement}"
        if self.pipeline != "off":
            cid += f"/{self.pipeline}"
        return cid

    @property
    def params(self) -> dict:
        return {
            "driver": self.driver,
            "framework": self.framework,
            "kernel": self.kernel,
            "dataset": self.dataset,
            "scale": self.scale,
            "placement": self.placement,
            "pipeline": self.pipeline,
        }

    @classmethod
    def from_params(cls, params: Dict) -> "SweepCell":
        """Rebuild a cell from an artifact's recorded params.

        This is how the gate re-runs exactly the baseline's matrix even
        if the default grids below have since changed.
        """
        try:
            return cls(driver=params["driver"], framework=params["framework"],
                       kernel=params["kernel"], dataset=params["dataset"],
                       scale=float(params["scale"]),
                       placement=str(params.get("placement", "cpu")),
                       pipeline=str(params.get("pipeline", "off")))
        except KeyError as exc:
            raise BenchmarkError(f"cell params missing {exc.args[0]!r}")


def _grid(driver: str, kernels: Sequence[str], datasets: Sequence[str],
          scales: Sequence[float]) -> tuple:
    return tuple(
        SweepCell(driver, fw, kernel, dataset, scale)
        for fw in _FRAMEWORKS
        for kernel in kernels
        for dataset in datasets
        for scale in scales
    )


# The committed-baseline grids.  Sized so a full two-area sweep stays in
# CI-smoke territory (~seconds): small datasets, one epoch, two
# representative batches.  ``gcn`` exercises the fused SpMM path, ``sage``
# the dense-dominated path, ``gat`` the unfused gather/softmax/scatter
# segment reductions.
KERNEL_MATRIX = _grid("conv", kernels=("gcn", "sage", "gat"),
                      datasets=("ppi",), scales=(0.5, 1.0))
TRAINING_MATRIX = _grid("train", kernels=("graphsage",),
                        datasets=("ppi",), scales=(0.3, 0.6))

# The datapipe ablation axis: serial vs depth-4 streaming on the
# CPU-sample/GPU-train placement, at both logical scales.  The gate
# tracks the pipelined cells' virtual time like any other metric, so a
# change that erodes the overlap win moves these cells.
PIPELINE_MATRIX = tuple(
    SweepCell("train", "dglite", "graphsage", "ppi", scale,
              placement="cpugpu", pipeline=pipeline)
    for scale in (0.3, 0.6)
    for pipeline in ("off", "depth-4")
)
TRAINING_MATRIX = TRAINING_MATRIX + PIPELINE_MATRIX

# The serving area: one micro-batched serving window per framework on
# the warm-cache CPU-sample/GPU-serve placement.  Virtual makespan and
# energy are deterministic functions of the seed, so the gate tracks
# tail-latency-driving cost exactly like training cost.
SERVING_MATRIX = tuple(
    SweepCell("serve", fw, "graphsage", "ppi", 0.3,
              placement="cpugpu", pipeline="depth-4")
    for fw in _FRAMEWORKS
)

MATRICES = {"kernels": KERNEL_MATRIX, "training": TRAINING_MATRIX,
            "serving": SERVING_MATRIX}

# Training-cell hyperparameters (fixed: they are part of what a cell means).
_TRAIN_EPOCHS = 1
_TRAIN_BATCHES = 2

# Serving-cell workload knobs (fixed per the same rule: the offered
# trace is part of the cell's identity, the seed varies the draws).
_SERVE_RATE = 200.0
_SERVE_REQUESTS = 24
_SERVE_BUDGET_S = 0.020
_SERVE_MAX_BATCH = 8


def run_cell_once(cell: SweepCell, seed: int):
    """Run one cell for one seed.

    Returns ``(metrics, attribution)``: the two per-run metrics plus
    the phase / kernel-family virtual-second breakdown the gate uses to
    explain a regression (``repro profile`` attribution hints).
    """
    if cell.driver == "conv":
        result = measure_conv_forward(
            cell.framework, cell.dataset, cell.kernel, device="cpu",
            seed=seed, dataset_scale=cell.scale)
        if result.oom:
            raise BenchmarkError(f"hit OOM: {result.error}")
        virtual = result.phases["forward"]
    elif cell.driver == "train":
        result = run_training_experiment(
            cell.framework, cell.dataset, cell.kernel,
            placement=cell.placement, pipeline=cell.pipeline,
            epochs=_TRAIN_EPOCHS, representative_batches=_TRAIN_BATCHES,
            seed=seed, dataset_scale=cell.scale)
        if result.oom:
            raise BenchmarkError(f"hit OOM: {result.error}")
        virtual = result.total_time
    elif cell.driver == "serve":
        from repro.serving import ServeConfig, run_serving_experiment

        result = run_serving_experiment(
            ServeConfig(framework=cell.framework, dataset=cell.dataset,
                        model=cell.kernel, rate=_SERVE_RATE,
                        num_requests=_SERVE_REQUESTS,
                        budget_s=_SERVE_BUDGET_S,
                        max_batch=_SERVE_MAX_BATCH,
                        placement=cell.placement, pipeline=cell.pipeline,
                        seed=seed, dataset_scale=cell.scale))
        virtual = result.makespan
    else:
        raise BenchmarkError(f"unknown sweep driver {cell.driver!r}")
    metrics = {"virtual_s": float(virtual),
               "energy_j": float(result.total_energy)}
    attribution = {
        "phases": {k: float(v) for k, v in sorted(result.phases.items())},
        "kernel_families": {k: float(v) for k, v
                            in sorted(result.kernel_families.items())},
    }
    return metrics, attribution


def run_cell(cell: SweepCell, seeds: Sequence[int] = DEFAULT_SEEDS) -> dict:
    """Measure one cell across all seeds; returns the artifact cell payload."""
    if not seeds:
        raise BenchmarkError("need at least one seed")
    series: Dict[str, List[float]] = {}
    attribution: Optional[dict] = None
    for seed in seeds:
        try:
            run, attr = run_cell_once(cell, seed)
        except BenchmarkError as exc:
            raise BenchmarkError(f"sweep cell {cell.cell_id}: {exc}") from exc
        if attribution is None:
            # First seed's breakdown; virtual time is deterministic per
            # seed, so one representative is enough for the gate's hints.
            attribution = {"seed": int(seed), **attr}
        for metric, value in run.items():
            series.setdefault(metric, []).append(value)
    return {
        "id": cell.cell_id,
        "params": cell.params,
        "metrics": series,
        "attribution": attribution,
    }


def run_sweep(area: str, seeds: Sequence[int] = DEFAULT_SEEDS,
              cells: Optional[Sequence[SweepCell]] = None,
              progress=None) -> dict:
    """Run one area's matrix and return the (validated-shape) artifact.

    ``cells`` overrides the default grid — the gate passes the baseline's
    recorded cells here.  ``progress`` is an optional ``callable(str)``
    for CLI feedback.
    """
    from repro.telemetry.manifest import build_provenance

    if cells is None:
        if area not in MATRICES:
            raise BenchmarkError(
                f"unknown sweep area {area!r}; expected one of "
                f"{tuple(MATRICES)}")
        cells = MATRICES[area]
    payloads = []
    for cell in cells:
        if progress is not None:
            progress(f"  {cell.cell_id}")
        payloads.append(run_cell(cell, seeds))
    return build_sweep_artifact(area, payloads, seeds,
                                provenance=build_provenance())
