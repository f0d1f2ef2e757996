"""Experiment drivers behind every table and figure.

Each function builds a *fresh* simulated machine (clocks, ledgers, and
counters never leak between experiments), runs the workload, and returns
plain numbers: virtual seconds, joules, watts, and phase breakdowns.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.errors import BenchmarkError, OutOfMemoryError
from repro.frameworks import get_framework
from repro.frameworks.base import FrameworkGraph
from repro.hardware.machine import Machine, paper_testbed
from repro.models.base import two_layer_net
from repro.models.clustergcn import build_clustergcn, clustergcn_sampler
from repro.models.fullbatch import FullBatchTrainer, build_fullbatch_sage
from repro.models.graphsage import build_graphsage, graphsage_sampler
from repro.models.graphsaint import build_graphsaint, graphsaint_sampler
from repro.models.trainer import MiniBatchTrainer, TrainConfig
from repro.kernels.config import use_reference_kernels
from repro.kernels.transfer import adj_to_device, to_device
from repro.power.monitor import EnergyMonitor, EnergyReport
from repro.resilience.plan import FaultPlan
from repro.resilience.runtime import session as resilience_session
from repro.telemetry.runtime import TelemetrySession, tracer_for
from repro.telemetry.runtime import session as telemetry_session
from repro.telemetry.spans import PHASE_CATEGORY
from repro.tensor.tensor import no_grad

MODEL_BUILDERS = {
    "graphsage": (build_graphsage, graphsage_sampler),
    "clustergcn": (build_clustergcn, clustergcn_sampler),
    "graphsaint": (build_graphsaint, graphsaint_sampler),
}


@dataclass
class ExperimentResult:
    """Everything the figures need from one experiment run."""

    label: str
    phases: Dict[str, float] = field(default_factory=dict)
    energy: Optional[EnergyReport] = None
    losses: List[float] = field(default_factory=list)
    batches_per_epoch: int = 0
    oom: bool = False
    error: str = ""
    # Kernel-level attribution (busy seconds by kernel family) — the
    # paper-title "magnifying glass" view of where time went.
    kernel_families: Dict[str, float] = field(default_factory=dict)
    # Telemetry artifact paths (run.json, events.jsonl, ...) when the
    # experiment ran with ``telemetry_dir`` set.
    artifacts: Dict[str, str] = field(default_factory=dict)
    # Fault-injection totals (injected/recovered/retries/degraded +
    # per-site breakdown) when the run executed under a fault plan.
    resilience: Dict[str, object] = field(default_factory=dict)
    # False when halt_after_epochs cut the run short (simulated crash).
    completed: bool = True

    @property
    def total_time(self) -> float:
        return sum(self.phases.values())

    @property
    def total_energy(self) -> float:
        return self.energy.total_energy if self.energy else 0.0

    @property
    def avg_power(self) -> float:
        return self.energy.avg_power if self.energy else 0.0

    def phase_fraction(self, name: str) -> float:
        total = self.total_time
        return self.phases.get(name, 0.0) / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# end-to-end GNN training (Figures 6-21)
# ----------------------------------------------------------------------
def run_training_experiment(
    framework: str,
    dataset: str,
    model: str,
    placement: str = "cpu",
    preload: bool = False,
    prefetch: bool = False,
    epochs: int = 10,
    representative_batches: int = 3,
    seed: int = 0,
    monitor_interval: float = 0.1,
    dataset_scale: float = 1.0,
    feature_cache_fraction: float = 0.0,
    cache_policy: str = "degree",
    num_workers: int = 0,
    pipeline: str = "off",
    telemetry_dir: Optional[str] = None,
    fault_plan: Optional[Union[str, Dict, FaultPlan]] = None,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[str] = None,
    halt_after_epochs: Optional[int] = None,
    fastpath: bool = True,
) -> ExperimentResult:
    """Train one GNN end-to-end and return breakdown + power/energy.

    ``placement``: "cpu" (sample + train on CPU), "cpugpu" (sample CPU,
    train GPU), "gpu" (DGL GPU sampler + pre-load), "uvagpu" (DGL UVA
    sampler).  ``preload`` adds the case-study-1 feature pre-loading to a
    "cpugpu" run; ``feature_cache_fraction`` > 0 instead caches that
    fraction of node features on the GPU (partial pre-loading, ref [12]).

    ``telemetry_dir`` activates a telemetry session for the run and writes
    the artifact bundle (``run.json``, ``events.jsonl``, ``metrics.prom``,
    ``trace.json``) there; the paths land in ``ExperimentResult.artifacts``.

    ``fault_plan`` (a :class:`FaultPlan`, a plan dict, or a path to a plan
    JSON file) activates deterministic fault injection for the run;
    ``checkpoint_every``/``checkpoint_path``/``resume_from``/
    ``halt_after_epochs`` drive checkpoint-based crash–resume (see
    ``docs/resilience.md``).

    Every run streams its mini-batches through the composable datapipe
    (``docs/datapipe.md``): sampler workers, feature fetch, H2D copy, and
    training each get their own resource lane.  ``pipeline`` says how
    many batches are in flight — "off" is one (the paper's serial loop),
    "depth-N" is N; ``num_workers=w`` samples on a pool of ``w`` lanes
    with at least ``w`` in flight; ``prefetch`` (DGL only) keeps two in
    flight with sample/fetch/copy on one background loader lane.

    ``fastpath=False`` runs the whole experiment on the naive reference
    kernels (:func:`repro.kernels.config.use_reference_kernels`); charged
    virtual cost is identical either way, only host time moves (``repro
    train --reference-kernels``; ``perf/`` measures the difference).
    """
    if model not in MODEL_BUILDERS:
        raise BenchmarkError(f"unknown model {model!r}")
    build_model, build_sampler = MODEL_BUILDERS[model]
    plan = FaultPlan.coerce(fault_plan)
    fw = get_framework(framework)
    machine = paper_testbed()
    session_cm = (telemetry_session(machine.clock) if telemetry_dir is not None
                  else nullcontext(None))
    fault_cm = (resilience_session(plan) if plan is not None
                else nullcontext(None))
    kernel_cm = nullcontext() if fastpath else use_reference_kernels()
    with session_cm as tsession, fault_cm as injector, kernel_cm:
        monitor = EnergyMonitor(machine, interval=monitor_interval)
        tracer = tracer_for(machine.clock)
        label = _label(framework, placement, preload, prefetch, pipeline)
        monitor.start()
        try:
            with tracer.span("data_loading", PHASE_CATEGORY):
                fgraph = fw.load(dataset, machine, scale=dataset_scale)
            config = TrainConfig(
                epochs=epochs,
                placement=placement,
                preload=preload,
                prefetch=prefetch,
                num_workers=num_workers,
                pipeline=pipeline,
                representative_batches=representative_batches,
                seed=seed,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                resume_from=resume_from,
                halt_after_epochs=halt_after_epochs,
            )
            if model == "graphsage":
                mode = {"gpu": "gpu", "uvagpu": "uva"}.get(placement, "cpu")
                if placement == "gpu":
                    # GPU-based sampling needs the graph resident on the GPU
                    # before the sampler is constructed.
                    with tracer.span("data_movement", PHASE_CATEGORY):
                        fgraph.preload_to_gpu()
                sampler = build_sampler(fw, fgraph, mode=mode, seed=seed)
            else:
                if placement in ("gpu", "uvagpu"):
                    raise BenchmarkError(
                        f"{model} has no GPU/UVA sampler (paper: GraphSAGE-only)"
                    )
                sampler = build_sampler(fw, fgraph, seed=seed)
            net = build_model(fw, fgraph, seed=seed)
            feature_cache = None
            if feature_cache_fraction > 0:
                if placement != "cpugpu" or preload:
                    raise BenchmarkError(
                        "feature caching applies to the plain 'cpugpu' placement"
                    )
                from repro.frameworks.feature_cache import GpuFeatureCache

                with tracer.span("data_movement", PHASE_CATEGORY):
                    feature_cache = GpuFeatureCache(
                        fgraph, fraction=feature_cache_fraction,
                        policy=cache_policy, seed=seed,
                    )
                label = f"{label}+cache{int(100 * feature_cache_fraction)}"
            trainer = MiniBatchTrainer(fw, fgraph, sampler, net, config,
                                       tracer=tracer, label=label,
                                       feature_cache=feature_cache)
            run = trainer.run()
            report = monitor.stop()
            from repro.profiling.kernel_report import group_by_family

            result = ExperimentResult(
                label=label,
                phases=run.phases,
                energy=report,
                losses=run.losses,
                batches_per_epoch=run.batches_per_epoch,
                kernel_families=group_by_family(machine),
                completed=run.completed,
            )
        except OutOfMemoryError as exc:
            report = monitor.stop()
            result = ExperimentResult(label=label, phases=tracer.phase_rollup(),
                                      energy=report, oom=True, error=str(exc))
        if injector is not None:
            result.resilience = injector.summary()
        if tsession is not None:
            result.artifacts = _write_telemetry(
                telemetry_dir, tsession, machine, result,
                command="train", dataset=dataset, seed=seed,
                config={
                    "framework": framework,
                    "model": model,
                    "placement": placement,
                    "preload": preload,
                    "prefetch": prefetch,
                    "epochs": epochs,
                    "representative_batches": representative_batches,
                    "monitor_interval": monitor_interval,
                    "dataset_scale": dataset_scale,
                    "feature_cache_fraction": feature_cache_fraction,
                    "cache_policy": cache_policy,
                    "num_workers": num_workers,
                    "pipeline": pipeline,
                    "fastpath": fastpath,
                    "fault_plan": plan.describe() if plan is not None else "",
                    "checkpoint_every": checkpoint_every,
                    "resumed": bool(resume_from),
                },
            )
        return result


def _write_telemetry(out_dir: str, session: TelemetrySession, machine: Machine,
                     result: ExperimentResult, *, command: str, dataset: str,
                     seed: int, config: Dict[str, object]) -> Dict[str, str]:
    """Build the run manifest and write the four-artifact bundle."""
    from repro.telemetry.exporters import write_run_artifacts
    from repro.telemetry.manifest import build_run_manifest

    extra: Optional[Dict[str, Union[bool, str]]] = None
    if result.oom:
        extra = {"oom": True, "error": result.error}
    manifest = build_run_manifest(
        command=command,
        label=result.label,
        dataset=dataset,
        seed=seed,
        config=config,
        phases=result.phases,
        kernel_families=result.kernel_families,
        session=session,
        energy=result.energy,
        hardware=machine.describe(),
        extra=extra,
    )
    return write_run_artifacts(out_dir, session, machine.clock, manifest)


def _label(framework: str, placement: str, preload: bool, prefetch: bool,
           pipeline: str = "off") -> str:
    nick = {"dglite": "DGL", "pyglite": "PyG"}.get(framework, framework)
    place = {
        "cpu": "CPU",
        "cpugpu": "CPUGPU",
        "gpu": "GPU",
        "uvagpu": "UVAGPU",
    }[placement]
    suffix = "+preload" if preload else ""
    suffix += "+prefetch" if prefetch else ""
    if pipeline not in ("", "off"):
        suffix += f"+pipe{pipeline.replace('depth-', '')}"
    return f"{nick}-{place}{suffix}"


# ----------------------------------------------------------------------
# full-batch training (Figures 22-24)
# ----------------------------------------------------------------------
def run_fullbatch_experiment(
    framework: str,
    dataset: str,
    device: str = "cpu",
    epochs: int = 3,
    seed: int = 0,
    monitor_interval: float = 0.1,
    dataset_scale: float = 1.0,
) -> ExperimentResult:
    """Full-batch GraphSAGE; reports per-epoch time and power/energy."""
    fw = get_framework(framework)
    machine = paper_testbed()
    tracer = tracer_for(machine.clock)
    label = f"{_label(framework, 'cpu' if device == 'cpu' else 'cpugpu', False, False).split('-')[0]}-{device.upper()}"
    monitor = EnergyMonitor(machine, interval=monitor_interval)
    monitor.start()
    try:
        with tracer.span("data_loading", PHASE_CATEGORY):
            fgraph = fw.load(dataset, machine, scale=dataset_scale)
        net = build_fullbatch_sage(fw, fgraph, seed=seed)
        trainer = FullBatchTrainer(fw, fgraph, net, device=device,
                                   tracer=tracer)
        trainer.setup()
        losses = trainer.train_epochs(epochs)
        report = monitor.stop()
        phases = tracer.phase_rollup()
        phases["training"] = phases.get("training", 0.0) / max(1, epochs)  # per-epoch
        return ExperimentResult(label=label, phases=phases, energy=report,
                                losses=losses)
    except OutOfMemoryError as exc:
        report = monitor.stop()
        return ExperimentResult(label=label, phases=tracer.phase_rollup(),
                                energy=report, oom=True, error=str(exc))


# ----------------------------------------------------------------------
# functional tests (Figures 3-5)
# ----------------------------------------------------------------------
def measure_data_loader(framework: str, dataset: str,
                        dataset_scale: float = 1.0) -> float:
    """Figure 3: seconds to load a dataset into the framework object."""
    fw = get_framework(framework)
    machine = paper_testbed()
    start = machine.clock.now
    fw.load(dataset, machine, scale=dataset_scale)
    return machine.clock.now - start


def measure_sampler_epoch(framework: str, dataset: str, sampler: str,
                          representative_batches: int = 5,
                          seed: int = 0, dataset_scale: float = 1.0) -> Dict[str, float]:
    """Figure 4: seconds to run one sampling epoch (no training).

    Returns ``{"epoch": s, "one_time": s, "batches": n}`` where
    ``one_time`` is CSC conversion + (for ClusterGCN) partitioning.
    """
    if representative_batches < 1:
        raise BenchmarkError("representative_batches must be >= 1, got "
                             f"{representative_batches}")
    fw = get_framework(framework)
    machine = paper_testbed()
    fgraph = fw.load(dataset, machine, scale=dataset_scale)

    one_time_start = machine.clock.now
    if sampler == "neighbor":
        wrapped = graphsage_sampler(fw, fgraph, seed=seed)
    elif sampler == "cluster":
        wrapped = clustergcn_sampler(fw, fgraph, seed=seed)
        wrapped.ensure_partitioned()
    elif sampler == "saint_rw":
        wrapped = graphsaint_sampler(fw, fgraph, seed=seed)
    else:
        raise BenchmarkError(f"unknown sampler {sampler!r}")
    one_time = machine.clock.now - one_time_start

    num_batches = wrapped.num_batches()
    reps = min(representative_batches, num_batches)
    epoch_start = machine.clock.now
    iterator = iter(wrapped.epoch())
    ran = 0
    for _ in range(reps):
        if next(iterator, None) is None:
            break
        ran += 1
    elapsed = machine.clock.now - epoch_start
    if ran:
        elapsed *= num_batches / ran
    return {"epoch": elapsed, "one_time": one_time, "batches": float(num_batches)}


def measure_conv_forward(framework: str, dataset: str, kind: str,
                         device: str = "cpu", out_features: int = 256,
                         seed: int = 0, dataset_scale: float = 1.0,
                         monitor_interval: float = 0.1,
                         fastpath: bool = True) -> ExperimentResult:
    """Figure 5: one forward pass of a conv layer over the full graph.

    The run is energy-monitored so the perf-trajectory sweep can record
    joules per op cell; ``fastpath=False`` runs the reference kernel
    schedules (host time only — charged cost is schedule-invariant).
    """
    fw = get_framework(framework)
    machine = paper_testbed()
    label = f"{framework}/{dataset}/{kind}/{device}"
    monitor = EnergyMonitor(machine, interval=monitor_interval)
    monitor.start()
    kernel_cm = nullcontext() if fastpath else use_reference_kernels()
    try:
        with kernel_cm:
            fgraph = fw.load(dataset, machine, scale=dataset_scale)
            with fw.activate(), no_grad():
                target = machine.device(device)
                adj = adj_to_device(fgraph.adj, target, machine.pcie)
                x = to_device(fgraph.features, target, machine.pcie)
                in_features = fgraph.stats.num_features
                if kind == "gcn2":
                    conv = fw.conv(kind, in_features, in_features, seed=seed)
                else:
                    conv = fw.conv(kind, in_features, out_features, seed=seed)
                conv.to(target)
                start = machine.clock.now
                conv(adj, x)
                seconds = machine.clock.now - start
        report = monitor.stop()
        from repro.profiling.kernel_report import group_by_family

        return ExperimentResult(label=label, phases={"forward": seconds},
                                energy=report,
                                kernel_families=group_by_family(machine))
    except OutOfMemoryError as exc:
        monitor.stop()
        return ExperimentResult(label=label, oom=True, error=str(exc))
