"""The four fixed-work workloads of the perf benchmark.

Every workload is a closed-loop batch job on the host: a cold ``setup``
(timed as ``setup_s``) followed by a ``block`` of units (timed as
``host_units_per_s``), both driven through the public entry points that
``repro bench sweep`` and the figure suite execute.  ``serve_ladder`` is
open-loop on the *virtual* clock only.

The work is fixed.  Unit counts are the constants in :class:`Sizes`, never
calibrated to a duration, and every draw that decides how much work a unit
is (which mini-batches, partitions and request traces) is seeded from the
unit's position in the block, not from ``--seed``: two runs compare at
equal inputs whatever seed they were given, so the simulated seconds and
every count repeat exactly on any machine.  ``--seed`` seeds what leaves
the work alone: the parameter initialisation of the models and conv layers,
wherever a call takes it apart from the draws (every set-up, and all of
``conv_fullgraph``).  Where one ``seed=`` argument feeds both, the draw wins.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import serving
from repro.bench import harness
from repro.datasets import clear_cache, get_dataset
from repro.frameworks import get_framework
from repro.frameworks.feature_cache import GpuFeatureCache
from repro.hardware.machine import paper_testbed
from repro.models.clustergcn import clustergcn_sampler
from repro.models.fullbatch import build_fullbatch_sage
from repro.models.graphsage import build_graphsage, graphsage_sampler
from repro.models.graphsaint import graphsaint_sampler

FRAMEWORKS = ("dglite", "pyglite")
#: Seed of every sampler built in a set-up; see the module docstring.
DRAW_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """Unit counts of one block.

    Blocks are many short operations (20-150 ms) rather than a few long
    ones: the runner keeps each operation's best time over the rounds, and
    a short operation meets a quiet moment on a noisy host far more often.
    """

    train_passes: int = 2  # passes over the four (framework, pipeline) runs
    train_epochs: int = 2
    train_batches: int = 4  # representative batches executed per epoch
    sampler_passes: int = 2  # passes over the eight samplers
    sampler_batches: int = 50  # drawn from one sampler per pass
    conv_passes: int = 2  # passes over the eight (framework, conv) pairs
    fullbatch_epochs: int = 3
    serve_passes: int = 2  # passes over the four rungs
    serve_requests: int = 96  # per rung and pass


FULL = Sizes()
#: Shrunk counts for the smoke test only; never used for reported numbers.
QUICK = Sizes(train_passes=1, train_batches=2, sampler_passes=1,
              sampler_batches=6, conv_passes=1, fullbatch_epochs=1,
              serve_passes=1, serve_requests=24)


@dataclass
class Unit:
    """One operation of a block and the public result it returned."""

    kind: str
    work: int = 0  # workload units completed; 0 when the operation failed
    sim_s: float = 0.0  # virtual-clock seconds it charged
    result: object = None
    error: str = ""


@dataclass
class Check:
    """One verification operation."""

    name: str
    ok: bool
    detail: str = ""


def _run_unit(kind: str, on_unit: Callable[[str], None],
              fn: Callable[[], Tuple[int, float, object]]) -> Unit:
    """Run one operation; a raise or a charged OOM fails it (work 0)."""
    on_unit(kind)
    try:
        work, sim_s, result = fn()
    except Exception:  # unit boundary: record, count as failed, keep going
        return Unit(kind, error=traceback.format_exc())
    if getattr(result, "oom", False):
        return Unit(kind, result=result, error=f"OOM: {result.error}")
    return Unit(kind, work, sim_s, result)


def _first(units: Sequence[Unit], kind: str) -> Unit:
    return next(unit for unit in units if unit.kind == kind)


class Workload:
    """Base: name and the three passes; BENCHMARK.json says why it exists."""

    name = ""
    unit = ""
    # Cold set-ups per round, timed together as one sample of at least
    # 0.3 s: more where one set-up is short.
    setup_repeats = 1

    def __init__(self, sizes: Sizes = FULL) -> None:
        self.sizes = sizes

    def setup(self, seed: int) -> object:
        """Cold set-up: datasets, framework graphs, samplers, models."""
        raise NotImplementedError

    def block(self, state: object, seed: int,
              on_unit: Callable[[str], None]) -> List[Unit]:
        """The measured block; ``on_unit(kind)`` runs before each unit."""
        raise NotImplementedError

    def checks(self, units: Sequence[Unit], seed: int) -> List[Check]:
        """Workload-specific verification of one block's results."""
        return []


# ----------------------------------------------------------------------
# sage_train — Fig 6-9 pipeline, serial vs depth-4, both frameworks
# ----------------------------------------------------------------------
class SageTrain(Workload):
    name = "sage_train"
    unit = "executed mini-batch"
    setup_repeats = 2
    DATASET, SCALE = "reddit", 2.0
    PIPELINES = ("off", "depth-4")

    def setup(self, seed: int) -> object:
        clear_cache()
        get_dataset(self.DATASET, self.SCALE)
        state = []
        for name in FRAMEWORKS:
            fw = get_framework(name)
            fgraph = fw.load(self.DATASET, paper_testbed(), scale=self.SCALE)
            state.append((fgraph,
                          graphsage_sampler(fw, fgraph, seed=DRAW_SEED),
                          build_graphsage(fw, fgraph, seed=seed)))
        return state

    def block(self, state, seed, on_unit):
        sizes = self.sizes

        def train(framework: str, pipeline: str, run_seed: int):
            result = harness.run_training_experiment(
                framework, self.DATASET, "graphsage", placement="cpugpu",
                epochs=sizes.train_epochs,
                representative_batches=sizes.train_batches, seed=run_seed,
                dataset_scale=self.SCALE, pipeline=pipeline)
            return len(result.losses), result.total_time, result

        # Each pass draws its own batches (seeded by its index); the four
        # runs of a pass share them, because the checks compare their losses.
        return [
            _run_unit(f"train:{fw}:{pipe}", on_unit,
                      lambda fw=fw, pipe=pipe, index=index:
                      train(fw, pipe, index))
            for index in range(sizes.train_passes)
            for fw in FRAMEWORKS for pipe in self.PIPELINES
        ]

    def checks(self, units, seed):
        out = []
        losses = {}
        for unit in units:
            if unit.error:
                continue  # already counted as a failed operation
            run = unit.result
            losses[unit.kind] = run.losses
            out.append(Check(f"losses_finite[{unit.kind}]",
                             bool(run.losses) and
                             all(math.isfinite(x) for x in run.losses),
                             f"{len(run.losses)} losses"))
        for fw in FRAMEWORKS:
            serial, piped = (f"train:{fw}:{pipe}" for pipe in self.PIPELINES)
            if serial in losses and piped in losses:
                out.append(Check(f"serial_eq_depth4_losses[{fw}]",
                                 losses[serial] == losses[piped]))
                t_serial = _first(units, serial).sim_s
                t_piped = _first(units, piped).sim_s
                out.append(Check(f"depth4_sim_lt_serial[{fw}]",
                                 t_piped < t_serial,
                                 f"{t_piped:.6g} vs {t_serial:.6g} s"))
        for pipe in self.PIPELINES:
            dgl, pyg = (f"train:{fw}:{pipe}" for fw in FRAMEWORKS)
            if dgl in losses and pyg in losses:
                out.append(Check(
                    f"dglite_allclose_pyglite_losses[{pipe}]",
                    len(losses[dgl]) == len(losses[pyg]) and
                    bool(np.allclose(losses[dgl], losses[pyg],
                                     rtol=1e-4, atol=1e-6))))
        return out


# ----------------------------------------------------------------------
# sampler_epochs — Fig 4, the three samplers without training
# ----------------------------------------------------------------------
class SamplerEpochs(Workload):
    name = "sampler_epochs"
    unit = "sampled + assembled batch"
    SCALE = 2.0
    CELLS = (("reddit", "neighbor"), ("ogbn-products", "neighbor"),
             ("ogbn-products", "cluster"), ("reddit", "saint_rw"))

    def setup(self, seed: int) -> object:
        clear_cache()
        for dataset in ("reddit", "ogbn-products"):
            get_dataset(dataset, self.SCALE)
        samplers = {}
        for name in FRAMEWORKS:
            fw = get_framework(name)
            fgraphs = {}
            for dataset, kind in self.CELLS:
                if dataset not in fgraphs:
                    fgraphs[dataset] = fw.load(dataset, paper_testbed(),
                                               scale=self.SCALE)
                fgraph = fgraphs[dataset]
                if kind == "neighbor":
                    sampler = graphsage_sampler(fw, fgraph, seed=DRAW_SEED)
                elif kind == "cluster":
                    sampler = clustergcn_sampler(fw, fgraph, seed=DRAW_SEED)
                    sampler.ensure_partitioned()
                else:
                    sampler = graphsaint_sampler(fw, fgraph, seed=DRAW_SEED)
                samplers[f"sample:{name}:{dataset}:{kind}"] = sampler
        return samplers

    def block(self, state, seed, on_unit):
        want = self.sizes.sampler_batches

        def draw(sampler):
            clock = sampler.machine.clock
            start = clock.now
            drawn = 0
            while drawn < want:  # restart epoch() when one is exhausted
                for _batch in sampler.epoch():
                    drawn += 1
                    if drawn == want:
                        break
            sim_s = clock.now - start
            return drawn, sim_s, {"batches": drawn, "sim_s": sim_s}

        return [_run_unit(kind, on_unit, lambda s=sampler: draw(s))
                for _ in range(self.sizes.sampler_passes)
                for kind, sampler in state.items()]


# ----------------------------------------------------------------------
# conv_fullgraph — Fig 5 conv forwards + Fig 22-24 full-batch training
# ----------------------------------------------------------------------
class ConvFullgraph(Workload):
    name = "conv_fullgraph"
    unit = "full-graph layer pass or full-batch epoch"
    setup_repeats = 20
    DATASET, SCALE = "ogbn-arxiv", 0.5
    KINDS = ("gcn", "sage", "gat", "gatv2")

    def setup(self, seed: int) -> object:
        clear_cache()
        get_dataset(self.DATASET, self.SCALE)
        state = []
        for name in FRAMEWORKS:
            fw = get_framework(name)
            fgraph = fw.load(self.DATASET, paper_testbed(), scale=self.SCALE)
            width = fgraph.stats.num_features
            convs = [fw.conv(kind, width, 256, seed=seed)
                     for kind in self.KINDS]
            state.append((fgraph, convs,
                          build_fullbatch_sage(fw, fgraph, seed=seed)))
        return state

    def _forward(self, framework: str, kind: str, seed: int,
                 fastpath: bool = True):
        result = harness.measure_conv_forward(
            framework, self.DATASET, kind, device="gpu", seed=seed,
            dataset_scale=self.SCALE, fastpath=fastpath)
        return 1, result.total_time, result

    def block(self, state, seed, on_unit):
        epochs = self.sizes.fullbatch_epochs

        def fullbatch(framework: str):
            result = harness.run_fullbatch_experiment(
                framework, self.DATASET, device="gpu", epochs=epochs,
                seed=seed, dataset_scale=self.SCALE)
            # phases["training"] is per epoch; charge what the run charged.
            sim_s = result.total_time + (
                (epochs - 1) * result.phases.get("training", 0.0))
            return len(result.losses), sim_s, result

        units = [
            _run_unit(f"conv:{fw}:{kind}", on_unit,
                      lambda fw=fw, kind=kind: self._forward(fw, kind, seed))
            for _ in range(self.sizes.conv_passes)
            for fw in FRAMEWORKS for kind in self.KINDS
        ]
        units += [_run_unit(f"fullbatch:{fw}", on_unit,
                            lambda fw=fw: fullbatch(fw))
                  for fw in FRAMEWORKS]
        return units

    def checks(self, units, seed):
        out = []
        for fw in FRAMEWORKS:
            for kind in self.KINDS:
                fast = _first(units, f"conv:{fw}:{kind}")
                if fast.error:
                    continue
                ref = _run_unit(
                    f"conv_ref:{fw}:{kind}", lambda _kind: None,
                    lambda fw=fw, kind=kind: self._forward(
                        fw, kind, seed, fastpath=False))
                same = (not ref.error
                        and ref.sim_s == fast.sim_s
                        and ref.result.total_energy
                        == fast.result.total_energy)
                out.append(Check(f"reference_kernels_charge_equal[{fw}:{kind}]",
                                 same, ref.error.strip().splitlines()[-1]
                                 if ref.error else ""))
        for fw in FRAMEWORKS:
            run = _first(units, f"fullbatch:{fw}")
            if not run.error:
                out.append(Check(
                    f"losses_finite[fullbatch:{fw}]",
                    all(math.isfinite(x) for x in run.result.losses)))
        return out


# ----------------------------------------------------------------------
# serve_ladder — PR 10 serving layer across an offered-load ladder
# ----------------------------------------------------------------------
class ServeLadder(Workload):
    name = "serve_ladder"
    unit = "request served"
    setup_repeats = 2
    DATASET, SCALE, FRAMEWORK = "reddit", 2.0, "dglite"
    # (rate rps, cache fraction, pipeline)
    RUNGS = ((200.0, 0.25, "depth-4"), (1000.0, 0.25, "depth-4"),
             (5000.0, 0.25, "depth-4"), (1000.0, 0.0, "off"))

    def setup(self, seed: int) -> object:
        clear_cache()
        get_dataset(self.DATASET, self.SCALE)
        fw = get_framework(self.FRAMEWORK)
        fgraph = fw.load(self.DATASET, paper_testbed(), scale=self.SCALE)
        net = build_graphsage(fw, fgraph, seed=seed)
        net.eval()
        cache = GpuFeatureCache(fgraph, fraction=0.25, policy="degree",
                                seed=seed)
        return fgraph, net, cache

    def block(self, state, seed, on_unit):
        def serve(rate: float, cache: float, pipeline: str, run_seed: int):
            result = serving.run_serving_experiment(serving.ServeConfig(
                self.FRAMEWORK, self.DATASET, rate=rate,
                num_requests=self.sizes.serve_requests,
                cache_fraction=cache, pipeline=pipeline, seed=run_seed,
                dataset_scale=self.SCALE))
            return result.completed, result.makespan, result

        # Every rung of every pass serves its own trace (seeded by its
        # index), so no one draw of 96 nodes decides the whole block.
        rungs = [rung for _ in range(self.sizes.serve_passes)
                 for rung in self.RUNGS]
        return [
            _run_unit(f"serve:{rate:g}rps:cache{cache:g}:{pipe}", on_unit,
                      lambda rate=rate, cache=cache, pipe=pipe, index=index:
                      serve(rate, cache, pipe, index))
            for index, (rate, cache, pipe) in enumerate(rungs)
        ]

    def checks(self, units, seed):
        out = []
        for unit in units:
            if unit.error:
                continue
            run = unit.result
            out.append(Check(
                f"all_requests_accounted[{unit.kind}]",
                run.completed + run.shed == self.sizes.serve_requests,
                f"completed {run.completed} shed {run.shed}"))
            out.append(Check(f"none_shed[{unit.kind}]", run.shed == 0))
            out.append(Check(f"no_budget_violations[{unit.kind}]",
                             run.budget_violations == 0))
        return out


WORKLOADS = {cls.name: cls
             for cls in (SageTrain, SamplerEpochs, ConvFullgraph, ServeLadder)}


# ----------------------------------------------------------------------
# per-layer metrics read from one block's public results (simulated
# clock; exact for a fixed seed).  0 means "not exercised by this
# workload".
# ----------------------------------------------------------------------
KERNEL_FAMILIES = ("spmm", "gather", "scatter", "sddmm")
SIM_LAYER_METRICS = (
    ("models.sim_data_loading_s", "s"), ("models.sim_sampling_s", "s"),
    ("models.sim_data_movement_s", "s"), ("models.sim_training_s", "s"),
    ("kernels.sim_spmm_s", "s"), ("kernels.sim_gather_s", "s"),
    ("kernels.sim_scatter_s", "s"), ("kernels.sim_sddmm_s", "s"),
    ("kernels.sim_other_s", "s"),
    ("datapipe.sim_overlap_ratio", "ratio"),
    ("frameworks.sim_pyg_over_dgl", "ratio"),
    ("sampling.batches", "count"), ("sampling.sim_s_per_batch", "s"),
    ("power.sim_energy_j", "J"), ("power.sim_avg_w", "W"),
    ("power.samples", "count"),
    ("serving.sim_p50_ms", "ms"), ("serving.sim_p99_ms", "ms"),
    ("serving.sim_goodput_rps", "1/s"), ("serving.cache_hit_rate", "ratio"),
    ("serving.mean_batch_size", "count"), ("serving.shed_frac", "ratio"),
    ("serving.budget_violations", "count"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sim_layer_metrics(units: Sequence[Unit]) -> Dict[str, float]:
    """The ``SIM_LAYER_METRICS`` of one block, from its units' results."""
    out = {name: 0.0 for name, _unit in SIM_LAYER_METRICS}
    energy_j = duration_s = 0.0
    latencies: List[float] = []
    batch_sizes: List[int] = []
    hits = lookups = completed = shed = 0
    makespan = 0.0
    good = [unit for unit in units if not unit.error]
    for unit in good:
        run = unit.result
        if isinstance(run, dict):  # a sampler draw
            out["sampling.batches"] += run["batches"]
            out["sampling.sim_s_per_batch"] += run["sim_s"]
            continue
        for phase, seconds in run.phases.items():
            key = f"models.sim_{phase}_s"
            if key in out:
                out[key] += seconds
        for family, seconds in run.kernel_families.items():
            key = (f"kernels.sim_{family}_s" if family in KERNEL_FAMILIES
                   else "kernels.sim_other_s")
            out[key] += seconds
        if run.energy is not None:
            energy_j += run.energy.total_energy
            duration_s += run.energy.duration
            out["power.samples"] += run.energy.samples
        if isinstance(run, serving.ServeResult):
            latencies.extend(run.latencies)
            batch_sizes.extend(run.batch_sizes)
            hits += run.cache_hits
            lookups += run.cache_hits + run.cache_misses
            completed += run.completed
            shed += run.shed
            makespan += run.makespan
            out["serving.budget_violations"] += run.budget_violations

    def sim_tagged(tag: str) -> float:
        # Paired comparisons only: the serving rungs differ in more than
        # the tag, so they are left out.
        return sum(unit.sim_s for unit in good
                   if tag in unit.kind.split(":")
                   and not unit.kind.startswith("serve:"))

    out["sampling.sim_s_per_batch"] = _ratio(
        out["sampling.sim_s_per_batch"], out["sampling.batches"])
    out["datapipe.sim_overlap_ratio"] = _ratio(sim_tagged("depth-4"),
                                               sim_tagged("off"))
    out["frameworks.sim_pyg_over_dgl"] = _ratio(sim_tagged("pyglite"),
                                                sim_tagged("dglite"))
    out["power.sim_energy_j"] = energy_j
    out["power.sim_avg_w"] = _ratio(energy_j, duration_s)
    if latencies:
        ordered = sorted(latencies)
        out["serving.sim_p50_ms"] = 1e3 * serving.nearest_rank(ordered, 0.50)
        out["serving.sim_p99_ms"] = 1e3 * serving.nearest_rank(ordered, 0.99)
        out["serving.sim_goodput_rps"] = _ratio(completed, makespan)
        out["serving.cache_hit_rate"] = _ratio(hits, lookups)
        out["serving.mean_batch_size"] = _ratio(sum(batch_sizes),
                                                len(batch_sizes))
        out["serving.shed_frac"] = _ratio(shed, completed + shed)
    return out
