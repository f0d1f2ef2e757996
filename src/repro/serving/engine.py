"""The serving engine: micro-batched layerwise inference on the datapipe.

One :func:`run_serving_experiment` call simulates a serving window on a
fresh paper testbed: a seeded open-loop trace is micro-batched under the
latency budget, and every batch is one :func:`repro.datapipe.run_epoch`
item released at its close time, running four stages on dedicated lanes —

* ``serve.fetch`` — multi-hop block construction plus the feature-store
  read for cache-miss rows (the ``storage.read`` fault seam),
* ``serve.h2d`` — miss rows over PCIe (the ``transfer.h2d`` fault seam)
  and the on-GPU gather of cache-hit rows,
* ``serve.gpu`` / ``serve.cpu`` — sampling-free layerwise inference over
  the batch's exact L-hop blocks (reusing the chunk-block machinery from
  :mod:`repro.models.inference`),
* ``serve.d2h`` — logits back to the host.

With ``pipeline=depth-N`` up to N batches are in flight, so batch
``i+1``'s feature fetch overlaps batch ``i``'s compute; ``off`` (or
``depth-1``) serializes batches.  The datapipe executes the work for
real inside ``clock.deferred()`` so numerics and RNG order are
schedule-independent; only the measured costs are placed on lanes.

Degraded modes: when a fault site exhausts its recovery budget the
engine either **sheds** the batch (it ends at its h2d stage and its
requests never complete — offered load above the failure is simply
dropped, protecting the budget for everyone else) or serves **stale**-cache answers (cache-hit rows only,
miss rows zero-filled) so the batch still completes inside its budget.
Stale service requires a feature cache; without one the engine sheds.
Either way the exhausted fault is recovered by the fallback
(:func:`repro.resilience.runtime.degrade`: one ``degraded``, one
``recovered`` with action ``degrade``); a ``degrade: false`` policy
raises :class:`~repro.errors.RecoveryExhausted` instead.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.datapipe.config import parse_pipeline, validate_pipeline_placement
from repro.datapipe.pipeline import EndItem, Stage, run_epoch
from repro.errors import BenchmarkError, RecoveryExhausted
from repro.frameworks import get_framework
from repro.hardware.device import KernelCost
from repro.hardware.machine import paper_testbed
from repro.kernels.adj import RowMemo
from repro.models.graphsage import build_graphsage
from repro.models.inference import batch_blocks
from repro.power.monitor import EnergyMonitor, EnergyReport
from repro.resilience import runtime as resilience
from repro.resilience.plan import FaultPlan
from repro.serving.batcher import form_batches
from repro.serving.latency import LatencyAccountant
from repro.serving.workload import TRACE_KINDS, generate_trace
from repro.telemetry import runtime as telemetry
from repro.telemetry.runtime import maybe_span
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad

SERVE_PLACEMENTS = ("cpu", "cpugpu")
DEGRADED_MODES = ("shed", "stale")

#: Latency histogram buckets: 4^-10 s (~1 µs) .. 4^5 s, wide enough for
#: micro-batched inference tails (the default registry buckets start at
#: one full second and would flatten every serving latency into bucket 0).
LATENCY_BUCKETS = tuple(4.0 ** k for k in range(-10, 6))
HIT_RATE_BUCKETS = tuple(round(0.1 * k, 1) for k in range(1, 11))


@dataclass(frozen=True)
class ServeConfig:
    """One serving experiment: workload, batching, placement, degradation."""

    framework: str
    dataset: str
    model: str = "graphsage"
    rate: float = 100.0  # offered load, requests per virtual second
    num_requests: int = 64
    trace: str = "poisson"
    nodes_per_request: int = 1
    budget_s: float = 0.050  # micro-batcher latency budget (max batch wait)
    max_batch: int = 32
    placement: str = "cpugpu"
    pipeline: str = "depth-4"  # batches in flight on the serving lanes
    cache_fraction: float = 0.25
    cache_policy: str = "degree"
    degraded_mode: str = "shed"
    seed: int = 0
    dataset_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.placement not in SERVE_PLACEMENTS:
            raise BenchmarkError(
                f"serve placement must be one of {SERVE_PLACEMENTS}, "
                f"got {self.placement!r} (on-device sampling placements "
                "do not apply: serving is sampling-free)")
        if self.degraded_mode not in DEGRADED_MODES:
            raise BenchmarkError(
                f"unknown degraded mode {self.degraded_mode!r}; "
                f"expected one of {DEGRADED_MODES}")
        if self.trace not in TRACE_KINDS:
            raise BenchmarkError(
                f"unknown trace kind {self.trace!r}; expected {TRACE_KINDS}")
        for knob, value in (("rate", self.rate),
                            ("latency budget", self.budget_s),
                            ("dataset scale", self.dataset_scale)):
            if not (math.isfinite(value) and value > 0):
                raise BenchmarkError(
                    f"{knob} must be finite and > 0, got {value!r}")
        if self.max_batch < 1:
            raise BenchmarkError("max batch size must be >= 1")
        if not (0.0 <= self.cache_fraction <= 1.0):
            raise BenchmarkError("cache fraction must be in [0, 1]")
        if self.num_requests < 1 or self.nodes_per_request < 1:
            raise BenchmarkError(
                "num_requests and nodes_per_request must be >= 1")
        # The single pipeline × placement validation path shared with
        # `repro train` (see repro.datapipe.config).
        validate_pipeline_placement(self.pipeline, self.placement)

    @property
    def depth(self) -> int:
        """Batches in flight: ``off`` and ``depth-1`` both serialize."""
        return parse_pipeline(self.pipeline).depth

    @property
    def label(self) -> str:
        nick = {"dglite": "DGL", "pyglite": "PyG"}.get(self.framework,
                                                       self.framework)
        return (f"{nick}-serve-{self.placement}/{self.trace}"
                f"@{self.rate:g}rps")


@dataclass
class ServeResult:
    """Outcome of one serving window (one framework at one offered load)."""

    config: ServeConfig
    label: str
    latencies: List[float]  # completed requests only, completion order
    completed: int
    shed: int
    stale: int
    batch_sizes: List[int]
    batch_closes: Dict[str, int]  # "size"/"deadline" close counts
    max_batch_wait: float
    budget_violations: int
    cache_hits: int
    cache_misses: int
    makespan: float
    phases: Dict[str, float] = field(default_factory=dict)
    kernel_families: Dict[str, float] = field(default_factory=dict)
    energy: Optional[EnergyReport] = None
    resilience: Dict[str, object] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return self.completed + self.shed

    @property
    def throughput(self) -> float:
        return self.completed / self.makespan if self.makespan > 0 else 0.0

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_energy(self) -> float:
        return self.energy.total_energy if self.energy else 0.0

    def latency_summary(self) -> Dict[str, float]:
        accountant = LatencyAccountant()
        accountant.latencies = list(self.latencies)
        return accountant.summary()


def run_serving_experiment(
    config: ServeConfig,
    fault_plan: Optional[Union[str, Dict, FaultPlan]] = None,
    monitor_interval: float = 0.1,
) -> ServeResult:
    """Serve one seeded trace and return the latency/throughput account.

    Builds a fresh machine (clocks and ledgers never leak between
    serving windows), loads the dataset, places the model, warms the
    feature cache, then replays the trace through the micro-batcher and
    the datapipe.  ``fault_plan`` activates deterministic fault
    injection on the ``storage.read``/``transfer.h2d`` seams.
    """
    if config.model != "graphsage":
        raise BenchmarkError(f"serving needs a layered block model "
                             f"(graphsage), got {config.model!r}")
    plan = FaultPlan.coerce(fault_plan)
    fw = get_framework(config.framework)
    machine = paper_testbed()
    fault_cm = (resilience.session(plan) if plan is not None
                else nullcontext(None))
    with fault_cm as injector:
        monitor = EnergyMonitor(machine, interval=monitor_interval)
        monitor.start()
        try:
            fgraph = fw.load(config.dataset, machine,
                             scale=config.dataset_scale)
            result = _serve_trace(config, fw, fgraph, machine)
            result.energy = monitor.stop()
        except BaseException:
            monitor.stop()
            raise
        if injector is not None:
            result.resilience = injector.summary()
        from repro.profiling.kernel_report import group_by_family

        result.kernel_families = group_by_family(machine)
        return result


@dataclass
class _InFlight:
    """One micro-batch's state between its stages."""

    blocks: list
    mask: Optional[np.ndarray] = None  # cache-hit rows of blocks[0]
    miss_bytes: float = 0.0
    hit_bytes: float = 0.0
    degraded: Optional[str] = None  # None | "shed" | "stale"
    out: Optional[Tensor] = None


def _serve_trace(config: ServeConfig, fw, fgraph, machine) -> ServeResult:
    """The serving loop proper (machine/session lifecycle handled above)."""
    graph = fgraph.graph
    clock = machine.clock
    on_gpu = config.placement == "cpugpu"
    target = machine.device("gpu" if on_gpu else "cpu")

    net = build_graphsage(fw, fgraph, seed=config.seed)
    net.eval()
    if on_gpu:
        with fw.activate():
            net.to(machine.gpu, link=machine.pcie)
    layers = list(net._layers)

    cache = None
    if on_gpu and config.cache_fraction > 0:
        from repro.frameworks.feature_cache import GpuFeatureCache

        cache = GpuFeatureCache(fgraph, fraction=config.cache_fraction,
                                policy=config.cache_policy, seed=config.seed)

    # The trace is generated in serving-relative time and shifted to the
    # clock's current now: warmup (load, model copy, cache fill) happened
    # before the serving window opens.
    t0 = clock.now
    trace = [r.shifted(t0) for r in generate_trace(
        config.trace, config.num_requests, config.rate, graph.num_nodes,
        seed=config.seed, nodes_per_request=config.nodes_per_request)]
    batches = form_batches(trace, config.max_batch, config.budget_s)

    accountant = LatencyAccountant()
    registry = telemetry.metrics()
    x_host = fgraph.features.data
    feat_row_bytes = 4.0 * graph.node_scale * graph.num_features
    # What an exhausted fault seam degrades a batch to.
    fallback = config.degraded_mode if cache is not None else "shed"
    # Layer-0 neighbour means of this window, read from the feature
    # store in place (a blocks[0] row is the node's full
    # in-neighbourhood over raw features, so it repeats byte for byte).
    # Rows under the mean degree are most of the rows but little of the
    # edge work, so they are recomputed, not kept.
    memo = RowMemo(x_host, min_degree=graph.num_edges / graph.num_nodes)

    def fetch(index, batch) -> _InFlight:
        """Block stack + feature-store read for miss rows."""
        item = _InFlight(batch_blocks(graph, batch.nodes, len(layers), target))
        rows0 = item.blocks[0].src_nodes
        hits = 0
        if cache is not None:
            item.mask = cache.record(rows0)
            hits = int(item.mask.sum())
            if registry is not None:
                hist = registry.histogram(
                    "serve.request_hit_rate", buckets=HIT_RATE_BUCKETS,
                    framework=config.framework)
                for request in batch.requests:
                    hist.observe(float(cache.hit_mask(request.nodes).mean()))
        item.miss_bytes = feat_row_bytes * int(rows0.size - hits)
        item.hit_bytes = feat_row_bytes * hits
        if item.miss_bytes > 0:
            try:
                machine.read_storage(item.miss_bytes, tag="serve-feature-read")
            except RecoveryExhausted as exhausted:
                resilience.degrade(exhausted)
                item.degraded = fallback
        return item

    def h2d(index, item: _InFlight):
        """Miss rows over PCIe, hit rows gathered on the GPU."""
        if on_gpu and item.degraded is None and item.miss_bytes > 0:
            try:
                machine.pcie.h2d(item.miss_bytes, tag="serve-features")
            except RecoveryExhausted as exhausted:
                resilience.degrade(exhausted)
                item.degraded = fallback
        if item.degraded == "shed":
            return EndItem("shed")
        if on_gpu and item.hit_bytes > 0:
            machine.gpu.execute(KernelCost(
                name="feature-cache.gather", bytes_moved=2.0 * item.hit_bytes,
                compute_eff=0.6, memory_eff=0.6))
        return item

    def compute(index, item: _InFlight) -> _InFlight:
        """Exact layerwise inference over the block stack."""
        block = item.blocks[0]
        with fw.activate():
            if item.degraded == "stale":
                # Stale-cache answer: only cached rows carry real
                # features; the failed miss rows are zero-filled in a
                # full gather (a fresh array, not the store), so its
                # rows neither come from nor go to the memo.
                x = x_host[block.src_nodes]
                x[~item.mask] = 0.0
            else:
                # The memo's SpMM reads source rows from the store in
                # place, so only the destination prefix is copied; the
                # rest of x is never read.
                x = np.empty((block.num_src, x_host.shape[1]),
                             dtype=x_host.dtype)
                np.take(x_host, block.src_nodes[:block.num_dst], axis=0,
                        out=x[:block.num_dst])
                block.row_memo = memo
            out = Tensor(x, device=target, work_scale=graph.node_scale)
            for i, layer in enumerate(layers):
                out = layer(item.blocks[i], out)
                if i < len(layers) - 1:
                    out = F.relu(out)
        item.out = out
        return item

    def d2h(index, item: _InFlight) -> str:
        """Logits back to the host for the response path."""
        if on_gpu:
            machine.pcie.d2h(item.out.logical_nbytes, tag="serve-logits")
        return "stale" if item.degraded == "stale" else "completed"

    stages = [
        Stage("fetch", "sampling", fn=fetch, lanes=("serve.fetch",)),
        Stage("h2d", "data_movement", fn=h2d, lanes=("serve.h2d",)),
        Stage("compute", "training", fn=compute,
              lanes=("serve.gpu" if on_gpu else "serve.cpu",)),
        Stage("d2h", "data_movement", fn=d2h, lanes=("serve.d2h",)),
    ]
    with no_grad():
        report = run_epoch(machine, stages, batches, config.depth,
                           label=config.label,
                           release=lambda batch: batch.formed_at)

    shed = stale = 0
    batch_closes: Dict[str, int] = {}
    max_batch_wait = 0.0
    budget_violations = 0
    for batch, outcome, last in zip(batches, report.outputs, report.terminal):
        batch_closes[batch.closed_by] = batch_closes.get(batch.closed_by, 0) + 1
        wait = batch.max_wait()
        max_batch_wait = max(max_batch_wait, wait)
        if wait > config.budget_s + 1e-12:
            budget_violations += 1
        latencies = None
        if outcome == "shed":
            shed += batch.size
        else:
            if outcome == "stale":
                stale += batch.size
            for request in batch.requests:
                accountant.complete(request, last.end)
            latencies = accountant.latencies[-batch.size:]
        _record_batch(registry, config, batch, outcome, last, latencies)

    # Serving reports stage-second sums, not the exclusive timeline split.
    seconds = report.stage_seconds
    phases = {
        "sampling": seconds.get("fetch", 0.0),
        "data_movement": seconds.get("h2d", 0.0) + seconds.get("d2h", 0.0),
        "training": seconds.get("compute", 0.0),
    }
    if cache is not None and registry is not None:
        registry.gauge("serve.cache_hit_rate",
                       framework=config.framework).set(cache.hit_rate())
    return ServeResult(
        config=config,
        label=config.label,
        latencies=list(accountant.latencies),
        completed=accountant.count,
        shed=shed,
        stale=stale,
        batch_sizes=[batch.size for batch in batches],
        batch_closes=batch_closes,
        max_batch_wait=max_batch_wait,
        budget_violations=budget_violations,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
        makespan=report.elapsed,
        phases=phases,
    )


def _record_batch(registry, config: ServeConfig, batch, outcome: str,
                  last_job, latencies: Optional[List[float]] = None) -> None:
    """Span + metrics for one dispatched batch (no-ops without a session)."""
    with maybe_span("serve.batch", category="serving",
                    batch_id=batch.batch_id, size=batch.size,
                    closed_by=batch.closed_by, outcome=outcome,
                    formed_at=batch.formed_at,
                    scheduled_end=last_job.end):
        pass
    if registry is None:
        return
    labels = {"framework": config.framework}
    registry.counter("serve.requests", outcome=outcome, **labels) \
        .inc(batch.size)
    registry.counter("serve.batches", closed_by=batch.closed_by, **labels) \
        .inc()
    registry.histogram("serve.batch_size", **labels).observe(batch.size)
    if latencies:
        hist = registry.histogram("serve.latency_seconds",
                                  buckets=LATENCY_BUCKETS, **labels)
        for latency in latencies:
            hist.observe(latency)


def run_serving_curve(
    base: ServeConfig,
    rates: List[float],
    frameworks: List[str],
    fault_plan: Optional[Union[str, Dict, FaultPlan]] = None,
    progress=None,
) -> List[ServeResult]:
    """The throughput-vs-offered-load sweep: one run per framework × rate."""
    from dataclasses import replace

    results = []
    for framework in frameworks:
        for rate in rates:
            config = replace(base, framework=framework, rate=float(rate))
            if progress is not None:
                progress(f"  {config.label}")
            results.append(run_serving_experiment(config,
                                                  fault_plan=fault_plan))
    return results
