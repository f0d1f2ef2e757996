"""The mini-batch training driver with four-phase accounting.

Every epoch is one :func:`repro.datapipe.run_epoch` call: the batch's
sample -> fetch -> copy -> train stages execute for real against the
virtual clock and are placed on resource lanes.  Because the paper-scale
epoch can have hundreds of batches, each epoch runs
``representative_batches`` batches for real and the datapipe replays the
rest symbolically at the measured per-stage mean cost, preserving the
breakdown, the power timeline, and the totals.  ``pipeline``,
``num_workers`` and ``prefetch`` only declare how many batches are in
flight and which lanes the stages share; there is no second schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datapipe.config import parse_pipeline, validate_pipeline_placement
from repro.datapipe.pipeline import Stage, run_epoch
from repro.datapipe.staging import StagingPool
from repro.errors import BenchmarkError
from repro.frameworks.base import Framework, FrameworkBatch, FrameworkGraph
from repro.hardware.device import KernelCost
from repro.kernels.transfer import adj_to_device, to_device
from repro.models.base import make_loss
from repro.telemetry import runtime as telemetry
from repro.telemetry.runtime import maybe_span, tracer_for
from repro.telemetry.spans import PHASE_CATEGORY, SpanTracer
from repro.tensor.module import Module
from repro.tensor.optim import Adam

PLACEMENTS = ("cpu", "cpugpu", "gpu", "uvagpu")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and execution placement for one training run."""

    epochs: int = 10
    lr: float = 1e-3
    dropout: float = 0.5
    placement: str = "cpu"
    preload: bool = False  # pre-load graph + features to GPU (case study 1)
    # DGL's background pre-fetch thread: two batches in flight with
    # sample/fetch/copy sharing one ``loader`` lane behind GPU training.
    prefetch: bool = False
    # Parallel sampling workers (DGL/PyG dataloader num_workers).  0 =
    # inline sampling as the paper measures; w >= 1 samples on a pool of
    # min(w, depth, cores) lanes at sublinear efficiency and keeps at
    # least w batches in flight.
    num_workers: int = 0
    # Mini-batches in flight on the per-resource lanes (sampler workers,
    # fetch, PCIe, GPU): "off" is one — the serial schedule — and
    # "depth-N" is N.
    pipeline: str = "off"
    representative_batches: int = 4
    seed: int = 0
    # Crash–resume: save a checkpoint every K completed epochs (0 = off),
    # resume from a previous checkpoint, and/or halt after E epochs to
    # simulate a mid-run kill (the run reports ``completed=False``).
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None
    resume_from: Optional[str] = None
    halt_after_epochs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise BenchmarkError(f"unknown placement {self.placement!r}")
        if self.epochs < 1 or self.representative_batches < 1:
            raise BenchmarkError("epochs and representative_batches must be >= 1")
        if self.num_workers < 0:
            raise BenchmarkError("num_workers must be >= 0")
        if self.num_workers and self.samples_on_gpu:
            raise BenchmarkError("sampling workers apply to CPU-side samplers only")
        # Shared validation path (also run at CLI parse time and by
        # ``repro serve``): parses the spec and rejects depth >= 2 under
        # the on-device sampling placements.
        validate_pipeline_placement(self.pipeline, self.placement)
        if self.pipeline != "off" and self.prefetch:
            raise BenchmarkError(
                "prefetch declares its own pipe (two batches in flight on a "
                "loader lane); it cannot be combined with an explicit depth-N"
            )
        if self.checkpoint_every < 0:
            raise BenchmarkError("checkpoint_every must be >= 0")
        if self.checkpoint_every and not self.checkpoint_path:
            raise BenchmarkError("checkpoint_every needs a checkpoint_path")
        if self.halt_after_epochs is not None and self.halt_after_epochs < 1:
            raise BenchmarkError("halt_after_epochs must be >= 1")

    @property
    def pipeline_depth(self) -> int:
        """Parsed depth of the ``pipeline`` knob (``off`` is 1)."""
        return parse_pipeline(self.pipeline).depth

    @property
    def trains_on_gpu(self) -> bool:
        return self.placement != "cpu"

    @property
    def samples_on_gpu(self) -> bool:
        return self.placement in ("gpu", "uvagpu")


@dataclass
class RunResult:
    """Outcome of one training run."""

    label: str
    phases: Dict[str, float]
    epochs: int
    batches_per_epoch: int
    executed_batches: int
    losses: List[float] = field(default_factory=list)
    # False when halt_after_epochs cut the run short (simulated crash);
    # start_epoch > 0 marks a run resumed from a checkpoint.
    completed: bool = True
    start_epoch: int = 0

    @property
    def total_time(self) -> float:
        return sum(self.phases.values())

    def phase_fraction(self, name: str) -> float:
        total = self.total_time
        return self.phases.get(name, 0.0) / total if total > 0 else 0.0


class MiniBatchTrainer:
    """Drives one (framework, dataset, sampler, model, placement) run."""

    def __init__(
        self,
        framework: Framework,
        fgraph: FrameworkGraph,
        sampler,
        model: Module,
        config: TrainConfig,
        tracer: Optional[SpanTracer] = None,
        label: str = "",
        feature_cache=None,
    ) -> None:
        if feature_cache is not None and config.prefetch:
            raise BenchmarkError(
                "feature caching and pre-fetching cannot be combined"
            )
        self.framework = framework
        self.fgraph = fgraph
        self.sampler = sampler
        self.model = model
        self.config = config
        self.machine = fgraph.machine
        self.tracer = tracer or tracer_for(self.machine.clock)
        self.label = label or f"{framework.name}-{config.placement}"
        self.loss_fn = make_loss(fgraph.stats.multilabel)
        self.feature_cache = feature_cache
        # Set when the worker pool burned through its respawn budget: the
        # rest of the run samples inline (one lane, one batch in flight).
        self._workers_degraded = False

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """One-time costs: pre-loading, partitioning, initial model copy."""
        config = self.config
        if config.preload or config.placement == "gpu":
            with self.tracer.span("data_movement", PHASE_CATEGORY):
                if not self.fgraph.preloaded_gpu:
                    self.fgraph.preload_to_gpu()
        if hasattr(self.sampler, "ensure_partitioned"):
            with self.tracer.span("sampling", PHASE_CATEGORY):
                self.sampler.ensure_partitioned()
        if config.trains_on_gpu:
            with self.tracer.span("data_movement", PHASE_CATEGORY), \
                    self.framework.activate():
                self.model.to(self.machine.gpu, link=self.machine.pcie)
        self.optimizer = Adam(self.model.parameters(), lr=config.lr)

    # ------------------------------------------------------------------
    def _move_batch(self, batch: FrameworkBatch) -> FrameworkBatch:
        """Charge the per-batch CPU->GPU movement (subgraph + features + labels)."""
        gpu = self.machine.gpu
        link = self.machine.pcie
        with self.framework.activate():
            moved_x = batch.x.device is not gpu
            batch.adjs = [
                adj_to_device(adj, gpu, link, tag="batch-graph") for adj in batch.adjs
            ]
            if moved_x and self.feature_cache is not None:
                self._move_features_cached(batch, gpu, link)
            else:
                batch.x = to_device(batch.x, gpu, link, tag="batch-features")
            if moved_x and batch.y_logical_nbytes > 0:
                link.h2d(batch.y_logical_nbytes, tag="batch-labels")
        return batch

    def _move_features_cached(self, batch: FrameworkBatch, gpu, link) -> None:
        """Move only cache-miss feature rows; gather hits on the GPU."""
        mask = self.feature_cache.record(batch.input_nodes)
        hit_fraction = float(mask.mean()) if mask.size else 0.0
        miss_bytes = batch.x.logical_nbytes * (1.0 - hit_fraction)
        hit_bytes = batch.x.logical_nbytes * hit_fraction
        if miss_bytes > 0:
            link.h2d(miss_bytes, tag="batch-features-miss")
        if hit_bytes > 0:
            # On-device gather of the cached rows into the batch tensor.
            gpu.execute(KernelCost(name="feature-cache.gather",
                                   bytes_moved=2.0 * hit_bytes,
                                   compute_eff=0.6, memory_eff=0.6))
        batch.x = to_device(batch.x, gpu, None)  # bytes already charged

    def _train_step(self, batch: FrameworkBatch) -> float:
        """One forward/backward/update on a mini-batch."""
        self.model.train()
        self.optimizer.zero_grad()
        with self.framework.activate():
            if batch.kind == "blocks":
                logits = self.model(batch.adjs, batch.x)
                y = batch.y
            else:
                logits = self.model(batch.adjs[0], batch.x)
                rows = batch.train_rows
                if rows is not None and rows.size > 0:
                    logits = logits[rows.astype(np.int64)]
                    y = batch.y[rows]
                else:
                    y = batch.y
            loss = self.loss_fn(logits, y)
            loss.backward()
            self.optimizer.step()
        return loss.item()

    # ------------------------------------------------------------------
    # the epoch schedule: what is in flight, on which lanes
    # ------------------------------------------------------------------
    @property
    def prefetching(self) -> bool:
        """Whether a background pre-fetch thread feeds the GPU (DGL only)."""
        config = self.config
        return (config.prefetch and self.framework.profile.supports_prefetch
                and config.trains_on_gpu and not config.samples_on_gpu)

    def in_flight(self) -> int:
        """Mini-batches in flight: the queue depth of the epoch's pipe.

        ``num_workers=w`` keeps at least ``w`` batches in flight (one per
        worker, DataLoader-style); pre-fetching keeps two (the batch
        training and the one the loader thread is preparing).
        """
        if self._workers_degraded:
            return 1
        depth = 2 if self.prefetching else self.config.pipeline_depth
        return max(depth, self.config.num_workers)

    def sampler_pool(self) -> Tuple[int, float]:
        """Sampler-worker lanes and the per-job cost inflation they pay.

        One worker per in-flight slot by default (DataLoader-style
        ``prefetch_factor`` semantics) or ``num_workers`` when given —
        never more than are in flight (one, once the pool is torn down)
        or than the physical cores, so a deep queue cannot fabricate
        parallelism the testbed does not have.  The lanes run
        concurrently but aggregate sampling throughput scales as
        ``workers ** 0.85`` (85% per doubling): each job is stretched by
        ``workers / speedup`` so the pool's rate stays sublinear.
        """
        spec = self.machine.cpu.spec
        cores = getattr(spec, "cores_per_socket", 10) * getattr(spec, "sockets", 1)
        depth = self.in_flight()
        workers = min(self.config.num_workers or depth, depth, cores)
        return workers, workers / min(float(cores), workers ** 0.85)

    def _batch_staging_bytes(self, batch: FrameworkBatch) -> float:
        """Logical bytes one in-flight batch pins (structure + x + y)."""
        structure = sum(adj.structure_nbytes() for adj in batch.adjs)
        return structure + batch.x.logical_nbytes + batch.y_logical_nbytes

    def _run_epoch(self, reps: int, num_batches: int,
                   losses: List[float]) -> int:
        """One epoch on the datapipe; returns executed batch count."""
        config = self.config
        depth = self.in_flight()
        needs_move = config.trains_on_gpu and not config.samples_on_gpu
        pool = StagingPool(self.machine, depth)
        # The pre-fetch thread does the CPU-side stages and the copy one
        # after the other; otherwise each stage owns its resource lane.
        loader = ("loader",) if self.prefetching else None
        if loader and not config.num_workers:
            sample_lanes, inflation = loader, 1.0
        else:
            workers, inflation = self.sampler_pool()
            sample_lanes = tuple(f"worker/{w}" for w in range(workers))
        # Only a pool can lose a worker: inline sampling (one batch in
        # flight, ``num_workers=0``) and a torn-down pool arm nothing.
        has_pool = not self._workers_degraded and (
            config.num_workers >= 1 or depth >= 2)

        def fetch(index: int, sample) -> FrameworkBatch:
            batch = self.sampler.assemble_features(sample)
            # Sizing the staging reads ``batch.x``: its rows are gathered here.
            pool.stage_host(index, self._batch_staging_bytes(batch))
            return batch

        def copy(index: int, batch: FrameworkBatch) -> FrameworkBatch:
            pool.stage_gpu(index, self._batch_staging_bytes(batch))
            return self._move_batch(batch)

        stages = [
            Stage("sample", "sampling",
                  fn=lambda i, req: self.sampler.sample_structure(req),
                  lanes=sample_lanes, scale=inflation,
                  fault_site="sampler.worker" if has_pool else ""),
            Stage("fetch", "sampling", fn=fetch, lanes=loader or ("fetch",)),
        ]
        if needs_move:
            stages.append(Stage("copy", "data_movement", fn=copy,
                                lanes=loader or ("copy",)))
        stages.append(Stage("train", "training", lanes=("train",),
                            fn=lambda i, batch: self._train_step(batch)))

        try:
            report = run_epoch(
                self.machine, stages, self.sampler.epoch_requests(), depth,
                limit=reps, extrapolate_to=num_batches, label=self.label,
            )
        finally:
            pool.close()
        if report.degraded:
            self._workers_degraded = True
        losses.extend(report.outputs)
        report.credit_phases(self.tracer)
        return report.executed

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Run the configured number of epochs; return the breakdown."""
        config = self.config
        self.setup()
        num_batches = self.sampler.num_batches()
        reps = min(config.representative_batches, num_batches)
        losses: List[float] = []
        executed = 0
        start_epoch = 0
        completed = True
        if config.resume_from:
            start_epoch, losses, executed = self._resume(config.resume_from)

        done = start_epoch  # epochs reached, resumed ones included
        for epoch in range(start_epoch, config.epochs):
            with maybe_span("train.epoch", epoch=epoch, label=self.label,
                            pipeline=config.pipeline):
                executed += self._run_epoch(reps, num_batches, losses)
            done = epoch + 1
            if (config.checkpoint_every
                    and done % config.checkpoint_every == 0):
                self._save_checkpoint(done, losses, executed)
            if (config.halt_after_epochs is not None
                    and done >= start_epoch + config.halt_after_epochs
                    and done < config.epochs):
                completed = False  # simulated crash: stop mid-run
                break

        registry = telemetry.metrics()
        if registry is not None:
            labels = {"label": self.label}
            registry.counter("trainer.epochs", **labels).inc(done)
            registry.counter("trainer.batches_executed", **labels).inc(executed)
            registry.counter("trainer.batches_extrapolated", **labels).inc(
                done * num_batches - executed
            )

        return RunResult(
            label=self.label,
            phases=self.tracer.phase_rollup(),
            epochs=config.epochs,
            batches_per_epoch=num_batches,
            executed_batches=executed,
            losses=losses,
            completed=completed,
            start_epoch=start_epoch,
        )

    # ------------------------------------------------------------------
    def _save_checkpoint(self, next_epoch: int, losses: List[float],
                         executed: int) -> None:
        """Persist everything a resumed process needs for bit-identical
        continuation: model + optimizer state, loss history, phase
        totals, and every RNG the loop consumes.  The write itself is
        off the virtual clock's critical path (asynchronous checkpoint
        I/O), so checkpointing never perturbs the reported breakdown.
        """
        from repro.models.checkpoint import capture_rng_states, save_checkpoint

        with maybe_span("checkpoint.save", category="resilience",
                        epoch=next_epoch):
            save_checkpoint(
                self.config.checkpoint_path, self.model, self.optimizer,
                metadata={
                    "kind": "train-resume",
                    "label": self.label,
                    "epoch": next_epoch,
                    "executed_batches": executed,
                    "losses": [float(v) for v in losses],
                    "phases": self.tracer.phase_rollup(),
                    "rng": capture_rng_states(self.model, self.sampler),
                },
            )
        registry = telemetry.metrics()
        if registry is not None:
            registry.counter("checkpoint.saves", label=self.label).inc()

    def _resume(self, path: str):
        """Restore a ``train-resume`` checkpoint written by this driver."""
        from repro.models.checkpoint import (CheckpointError, load_checkpoint,
                                             restore_rng_states)

        with maybe_span("recover.resume", category="resilience",
                        path=str(path)):
            meta = load_checkpoint(path, self.model, self.optimizer)
            if meta.get("kind") != "train-resume":
                raise CheckpointError(
                    f"{path} is not a training checkpoint (kind="
                    f"{meta.get('kind')!r}); save with checkpoint_every"
                )
            restore_rng_states(self.model, self.sampler, meta.get("rng", {}))
            # The checkpointed phase totals cover everything up to the
            # kill point; this process has re-charged loading/setup on a
            # fresh clock, so credit only the difference.  The prefix is
            # identical by determinism, hence the delta is exactly the
            # killed run's training progress.
            current = self.tracer.phase_rollup()
            for phase, seconds in meta.get("phases", {}).items():
                delta = seconds - current.get(phase, 0.0)
                if delta < -1e-9:
                    raise CheckpointError(
                        f"resume accounting mismatch for {phase!r}: this "
                        f"run already charged {current.get(phase, 0.0):.6f}s "
                        f"but the checkpoint recorded {seconds:.6f}s"
                    )
                if delta > 0:
                    self.tracer.credit(phase, delta)
            start_epoch = int(meta["epoch"])
            losses = [float(v) for v in meta.get("losses", [])]
            executed = int(meta.get("executed_batches", 0))
        registry = telemetry.metrics()
        if registry is not None:
            registry.counter("checkpoint.resumes", label=self.label).inc()
        return start_epoch, losses, executed
