"""Synchronous data-parallel GraphSAGE training over k GPUs.

A global step is one :func:`repro.datapipe.run_epoch` item, ``sample ->
move -> train``, at a constant depth of 1:

1. the host CPU samples one batch shard per GPU (the samplers stay on the
   CPU, exactly as in the paper — this stage does NOT parallelize);
2. each shard's features/graph cross PCIe to its GPU (the link is shared,
   so transfers serialize);
3. replicas compute forward/backward concurrently — rank 0's shard is
   executed physically and the other ranks are credited the same busy
   window (shards are symmetric by construction);
4. gradients ring-all-reduce across the GPUs, then every replica steps.

Replicas are busy seconds on the train job's record (one job, k
devices), so distributed energy is integrated exactly from busy intervals
(:meth:`~repro.distributed.machine.MultiGpuMachine.total_gpu_energy`)
instead of the sampled monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.datapipe.pipeline import Stage, run_epoch
from repro.distributed.collective import ring_allreduce
from repro.distributed.machine import MultiGpuMachine
from repro.errors import BenchmarkError, RecoveryExhausted
from repro.frameworks.base import Framework, FrameworkGraph
from repro.kernels.transfer import adj_to_device, to_device
from repro.models.base import make_loss
from repro.resilience import runtime as resilience
from repro.resilience.plan import FaultSpec
from repro.telemetry.runtime import maybe_span, tracer_for
from repro.telemetry.spans import PHASE_CATEGORY, SpanTracer
from repro.tensor.module import Module
from repro.tensor.optim import Adam


@dataclass
class ScalingResult:
    """Outcome of one data-parallel run."""

    num_gpus: int
    epochs: int
    steps_per_epoch: int
    phases: Dict[str, float]
    losses: List[float] = field(default_factory=list)
    gpu_energy: float = 0.0
    cpu_energy: float = 0.0

    @property
    def total_time(self) -> float:
        return sum(self.phases.values())

    @property
    def total_energy(self) -> float:
        return self.gpu_energy + self.cpu_energy


class DataParallelTrainer:
    """k-GPU synchronous data-parallel driver (GraphSAGE-style blocks)."""

    def __init__(
        self,
        framework: Framework,
        fgraph: FrameworkGraph,
        sampler,
        model: Module,
        epochs: int = 2,
        representative_steps: int = 2,
        lr: float = 1e-3,
        tracer: Optional[SpanTracer] = None,
    ) -> None:
        machine = fgraph.machine
        if not isinstance(machine, MultiGpuMachine):
            raise BenchmarkError("DataParallelTrainer needs a MultiGpuMachine")
        if epochs < 1 or representative_steps < 1:
            raise BenchmarkError("epochs and representative_steps must be >= 1")
        self.framework = framework
        self.fgraph = fgraph
        self.sampler = sampler
        self.model = model
        self.machine: MultiGpuMachine = machine
        self.epochs = epochs
        self.representative_steps = representative_steps
        self.tracer = tracer or tracer_for(machine.clock)
        self.loss_fn = make_loss(fgraph.stats.multilabel)
        self.optimizer = None
        self.lr = lr
        # Ranks still in the ring; the resilience layer excludes dead
        # replicas here and subsequent steps re-shard over the survivors.
        self._active_ranks: List[int] = list(range(machine.num_gpus))

    # ------------------------------------------------------------------
    def _grad_nbytes(self) -> float:
        return float(sum(p.logical_nbytes for p in self.model.parameters()))

    def _replica_names(self) -> List[str]:
        return [self.machine.gpus[rank].name
                for rank in self._active_ranks if rank > 0]

    def _sample(self, index: int, shards):
        """(1) host-side sampling of every shard — serial on the CPU.

        Each shard's features are gathered as it is sampled, so the
        ledger sees every shard's rows in this stage, in shard order."""
        batches = []
        for roots in shards:
            batches.append(self.sampler.sample(roots))
            _ = batches[-1].x  # gather now
        return batches

    def _move(self, index: int, batches):
        """(2) PCIe transfers serialize on the shared link."""
        machine = self.machine
        gpu0 = machine.gpus[0]
        with self.framework.activate():
            batch0 = batches[0]
            batch0.adjs = [adj_to_device(a, gpu0, machine.pcie, tag="dp-graph")
                           for a in batch0.adjs]
            batch0.x = to_device(batch0.x, gpu0, machine.pcie, tag="dp-features")
            machine.pcie.h2d(batch0.y_logical_nbytes, tag="dp-labels")
            for extra in batches[1:]:
                machine.pcie.h2d(extra.x.logical_nbytes, tag="dp-features")
                for adj in extra.adjs:
                    machine.pcie.h2d(adj.structure_nbytes(), tag="dp-graph")
                machine.pcie.h2d(extra.y_logical_nbytes, tag="dp-labels")
        return batch0

    def _train(self, index: int, batch0) -> float:
        """(3) replica compute + (4) all-reduce and update: one job, k GPUs.

        Rank 0 runs physically; ranks 1..k-1 are credited the same busy
        window (symmetric shards) inside the job's record.
        """
        clock = self.machine.clock
        with self.framework.activate():
            self.model.train()
            self.optimizer.zero_grad()
            logits = self.model(batch0.adjs, batch0.x)
            loss = self.loss_fn(logits, batch0.y)
            loss.backward()
            # Inside a stage ``clock.now`` stands still; the job's cost so
            # far is the compute window.
            compute = clock.deferred_seconds
            clock.credit_busy({name: compute for name in self._replica_names()})
            self._survive_replica_faults(compute)
            ring_allreduce(self.machine, self._grad_nbytes(), tag="dp-allreduce",
                           gpus=[self.machine.gpus[r] for r in self._active_ranks])
            self.optimizer.step()
        return loss.item()

    def _survive_replica_faults(self, compute: float) -> None:
        """The ``replica`` fault site, once per step while a rank > 0 lives.

        ``straggler``: the victim's step takes ``slow_factor`` times
        longer and the synchronous ring waits for it.  ``dead``: rank 0
        re-executes the victim's shard (one extra compute window) so no
        data is silently dropped, and the exhausted fault degrades by
        excluding the victim; later steps re-shard over the survivors.
        A fault aimed at an excluded rank bills nothing.
        """
        live = [rank for rank in self._active_ranks if rank > 0]
        if not live:
            return
        clock = self.machine.clock
        gpus = self.machine.gpus
        victim = None

        def charge(seconds: float, fault: FaultSpec) -> None:
            nonlocal victim
            victim = live[-1] if fault.rank is None else fault.rank
            if victim not in live:
                return
            if fault.kind == "straggler":
                with maybe_span("recover.straggler", category="resilience",
                                rank=victim, extra_seconds=seconds):
                    clock.occupy(gpus[victim].name, seconds)
            else:
                with maybe_span("recover.exclude", category="resilience",
                                rank=victim):
                    clock.occupy(gpus[0].name, seconds)

        try:
            resilience.recover("replica", compute, charge, clock.advance)
        except RecoveryExhausted as exhausted:
            resilience.degrade(exhausted)
            if victim in self._active_ranks:
                self._active_ranks.remove(victim)

    # ------------------------------------------------------------------
    def run(self) -> ScalingResult:
        machine = self.machine
        k = machine.num_gpus
        with self.tracer.span("data_movement", PHASE_CATEGORY), \
                self.framework.activate():
            self.model.to(machine.gpus[0], link=machine.pcie)
        self.optimizer = Adam(self.model.parameters(), lr=self.lr)

        batches_per_epoch = self.sampler.num_batches()
        steps_per_epoch = max(1, int(np.ceil(batches_per_epoch / k)))
        reps = min(self.representative_steps, steps_per_epoch)
        shard_size = self.sampler.algorithm.actual_batch_size
        train = self.fgraph.graph.train_nodes()
        rng = np.random.default_rng(0)
        losses: List[float] = []
        # A global step is one datapipe item at a constant depth of 1: the
        # three stages never overlap, and the un-executed steps of the
        # epoch replay at the measured per-stage mean like any other tail.
        stages = [
            Stage("sample", "sampling", fn=self._sample, lanes=("dp.sample",)),
            Stage("move", "data_movement", fn=self._move, lanes=("dp.move",)),
            Stage("train", "training", fn=self._train, lanes=("dp.train",)),
        ]

        def steps(order):
            """Per-step shard lists; re-sharded over the ranks still alive."""
            for step in range(reps):
                shards = []
                alive = len(self._active_ranks)
                for slot in range(alive):
                    lo = (step * alive + slot) * shard_size
                    roots = order[lo:lo + shard_size]
                    if roots.size == 0:
                        roots = order[:shard_size]
                    shards.append(roots)
                yield shards

        for _ in range(self.epochs):
            report = run_epoch(machine, stages, steps(rng.permutation(train)),
                               1, extrapolate_to=steps_per_epoch,
                               label=f"data-parallel-{k}gpu")
            losses.extend(report.outputs)
            report.credit_phases(self.tracer)

        start = 0.0
        end = machine.clock.now
        return ScalingResult(
            num_gpus=k,
            epochs=self.epochs,
            steps_per_epoch=steps_per_epoch,
            phases=self.tracer.phase_rollup(),
            losses=losses,
            gpu_energy=machine.total_gpu_energy(start, end),
            cpu_energy=machine.energy("cpu", start, end),
        )
