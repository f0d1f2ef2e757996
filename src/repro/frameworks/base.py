"""Shared framework machinery: graph objects, batches, sampler wrappers.

A :class:`Framework` *is* its :class:`FrameworkProfile` plus the
user-facing API (load a dataset, build samplers, build conv layers).
Behavioural differences between DGLite and PyGLite live in the profile:
its constants, and its ``fused_convs`` set, from which
:meth:`Framework.conv` picks each layer's lowering out of the one layer
zoo (:mod:`repro.frameworks.nn`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.datasets.base import build_dataset
from repro.datasets.registry import dataset_spec
from repro.errors import DeviceError, SamplerError
from repro.graph.graph import Graph
from repro.hardware.device import Device, KernelCost
from repro.hardware.machine import Machine
from repro.kernels.adj import SparseAdj
from repro.kernels.transfer import adj_to_device, to_device
from repro.frameworks.nn import CONVS
from repro.frameworks.profiles import FrameworkProfile
from repro.sampling.base import BlockSample, SubgraphSample
from repro.sampling.cluster import ClusterSampler
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.randomwalk import RandomWalkSampler
from repro.telemetry import runtime as telemetry
from repro.tensor.context import use_profile
from repro.tensor.tensor import Tensor


@dataclass
class FrameworkGraph:
    """A dataset loaded into a framework: graph object + feature storage."""

    framework: "Framework"
    graph: Graph
    machine: Machine
    adj: SparseAdj
    features: Tensor
    labels: np.ndarray
    preloaded_gpu: bool = False
    _csc_ready: bool = False
    _gpu_features: Optional[Tensor] = None
    _gpu_adj: Optional[SparseAdj] = None

    @property
    def stats(self):
        return self.graph.stats

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def preload_to_gpu(self) -> None:
        """Copy the full graph + features to GPU upfront (case study 1).

        Charges one bulk transfer and pins the logical bytes in GPU memory
        — infeasible (OOM) when the graph does not fit, as the paper notes.
        """
        machine = self.machine
        if machine.gpu is None:
            raise DeviceError("cannot pre-load: machine has no GPU")
        with self.framework.activate():
            self._gpu_features = to_device(
                self.features, machine.gpu, machine.pcie, tag="preload-features"
            )
            machine.gpu.memory.alloc(int(self.adj.structure_nbytes()), label="preload-graph")
            self._gpu_adj = adj_to_device(self.adj, machine.gpu, machine.pcie, tag="preload-graph")
        self.preloaded_gpu = True

    def features_on(self, device: Device) -> Tensor:
        if device.kind == "gpu" and self._gpu_features is not None:
            return self._gpu_features
        return self.features

    def adj_on(self, device: Device) -> SparseAdj:
        if device.kind == "gpu" and self._gpu_adj is not None:
            return self._gpu_adj
        return self.adj


@dataclass
class FrameworkBatch:
    """One mini-batch ready for a forward/backward pass.

    ``adjs`` holds one bipartite block per layer (GraphSAGE) or a single
    square subgraph adjacency (ClusterGCN / GraphSAINT).  ``x`` is the
    input feature tensor; ``y`` the labels of the rows the loss reads.
    ``train_rows`` restricts the loss to training nodes for subgraph
    batches (None = all output rows).
    """

    kind: str  # "blocks" | "subgraph"
    adjs: List[SparseAdj]
    x: Tensor
    y: np.ndarray
    y_logical_nbytes: float
    train_rows: Optional[np.ndarray] = None
    # Global ids of the rows of ``x`` (used by the feature-cache movement
    # path to split hits from misses).
    input_nodes: Optional[np.ndarray] = None


class Framework:
    """A GNN framework: everything it does differently is in ``profile``.

    The calibration-sensitivity bench builds one from a perturbed copy of
    a stock profile, which touches no global state.
    """

    def __init__(self, profile: FrameworkProfile) -> None:
        self.profile = profile
        self.name = profile.name

    def activate(self):
        """Context manager making this framework's cost profile active."""
        return use_profile(self.profile.cost)

    # ------------------------------------------------------------------
    # data loading (Figure 3)
    # ------------------------------------------------------------------
    def load(self, name: str, machine: Machine, scale: float = 1.0) -> FrameworkGraph:
        """Load a dataset from storage and build the framework graph object.

        Charges (a) the storage read of the logical dataset bytes and
        (b) graph-object construction at this framework's per-node/edge
        rates, with the raw-processing penalty when the dataset is not
        bundled in the framework's dataset module (Observation 1).
        """
        spec = dataset_spec(name)
        graph = build_dataset(spec, scale=scale)
        stats = graph.stats
        with self.activate():
            machine.read_storage(stats.stored_nbytes(), tag=f"load:{name}")
            bundled = bool(getattr(spec, self.profile.bundled_flag))
            penalty = 1.0 if bundled else self.profile.raw_process_penalty
            build_seconds = penalty * (
                stats.logical_num_nodes * self.profile.loader_per_node
                + stats.logical_num_edges * self.profile.loader_per_edge
            )
            machine.cpu.execute(
                KernelCost(name="loader.build_graph", fixed_time=build_seconds)
            )
            features = Tensor(
                graph.features, device=machine.cpu, work_scale=graph.node_scale,
            )
            adj = SparseAdj.from_graph(graph, device=machine.cpu)
        return FrameworkGraph(
            framework=self,
            graph=graph,
            machine=machine,
            adj=adj,
            features=features,
            labels=graph.labels,
        )

    # ------------------------------------------------------------------
    # conv layers (Figure 5)
    # ------------------------------------------------------------------
    def conv(self, kind: str, in_features: int, out_features: int, **kwargs):
        """Instantiate conv layer ``kind`` (a :data:`~repro.frameworks.nn.CONVS`
        key) in the lowering this framework has for it: the fused class
        when the profile lists the kind in ``fused_convs``, else the
        layer's gather/scatter subclass (Observation 3)."""
        if kind not in CONVS:
            raise KeyError(
                f"unknown conv kind {kind!r}; available: {', '.join(CONVS)}")
        fused, unfused = CONVS[kind]
        layer = fused if kind in self.profile.fused_convs else unfused
        if layer is None:
            raise ValueError(
                f"{self.name} declares conv {kind!r} unfused, but the layer "
                f"has no unfused lowering in repro.frameworks.nn")
        registry = telemetry.metrics()
        if registry is not None:
            registry.counter("framework.conv_built",
                             framework=self.name, kind=kind).inc()
        return layer(in_features, out_features, **kwargs)

    # ------------------------------------------------------------------
    # samplers (Figure 4)
    #
    # Every sampler builder defaults to ``seed=0`` so repeated benchmark
    # runs are reproducible; pass ``seed=None`` explicitly to opt into a
    # nondeterministic RNG.
    # ------------------------------------------------------------------
    def neighbor_sampler(self, fgraph: FrameworkGraph, fanouts=(25, 10),
                         batch_size: int = 512, mode: str = "cpu",
                         seed: Optional[int] = 0) -> "WrappedNeighborSampler":
        self._prepare_sampling(fgraph)
        if mode == "gpu" and not self.profile.supports_gpu_sampling:
            raise SamplerError(f"{self.name} has no GPU-based neighborhood sampler")
        if mode == "uva" and not self.profile.supports_uva_sampling:
            raise SamplerError(f"{self.name} has no UVA-based neighborhood sampler")
        return WrappedNeighborSampler(self, fgraph, fanouts, batch_size, mode, seed)

    def cluster_sampler(self, fgraph: FrameworkGraph, num_parts: int = 2000,
                        parts_per_batch: int = 50,
                        seed: Optional[int] = 0) -> "WrappedClusterSampler":
        self._prepare_sampling(fgraph)
        return WrappedClusterSampler(self, fgraph, num_parts, parts_per_batch, seed)

    def saint_sampler(self, fgraph: FrameworkGraph, num_roots: int = 3000,
                      walk_length: int = 2,
                      seed: Optional[int] = 0) -> "WrappedSaintSampler":
        self._prepare_sampling(fgraph)
        return WrappedSaintSampler(self, fgraph, num_roots, walk_length, seed)

    def extension_sampler(self, fgraph: FrameworkGraph, kind: str,
                          seed: Optional[int] = 0, **kwargs):
        """Build one of the non-benchmarked samplers (see
        :mod:`repro.frameworks.extensions`): "saint_node", "saint_edge",
        "fastgcn", or "ladies"."""
        from repro.frameworks.extensions import make_extension_sampler

        return make_extension_sampler(self, fgraph, kind, seed=seed, **kwargs)

    def _prepare_sampling(self, fgraph: FrameworkGraph) -> None:
        """One-time CSR -> CSC conversion (PyG requirement, Observation 2)."""
        if not self.profile.requires_csc or fgraph._csc_ready:
            return
        seconds = self.profile.csc_convert_per_edge * fgraph.stats.logical_num_edges
        with self.activate():
            fgraph.machine.cpu.execute(
                KernelCost(name="csc.convert", fixed_time=seconds)
            )
        fgraph._csc_ready = True


# ----------------------------------------------------------------------
# sampler wrappers: algorithm + profile-charged cost + batch assembly
# ----------------------------------------------------------------------
class _SamplerWrapper:
    """Common charging logic for the wrapped samplers.

    A batch is two stages — ``sample_structure`` (run the algorithm,
    charge the sample kernel) then ``assemble_features`` (charge the
    feature gather, build the :class:`FrameworkBatch`) — which the
    datapipe schedules on separate lanes and ``sample()``/``epoch()``
    run back to back.  Each stage activates the framework's profile for
    its own duration only, so whatever runs between two batches of an
    ``epoch()`` is priced under the consumer's profile.
    """

    kind: str = ""

    def __init__(self, framework: Framework, fgraph: FrameworkGraph, mode: str = "cpu"):
        if mode not in ("cpu", "gpu", "uva"):
            raise SamplerError(f"unknown sampling mode {mode!r}")
        self.framework = framework
        self.fgraph = fgraph
        self.mode = mode

    @property
    def machine(self) -> Machine:
        return self.fgraph.machine

    def _charge_device_sampling(self, items: float, fetch_bytes: float,
                                hops: int) -> None:
        """GPU/UVA sampling: structure draw and feature gather on the GPU."""
        machine = self.machine
        profile = self.framework.profile
        registry = telemetry.metrics()
        if registry is not None:
            labels = {"framework": self.framework.name, "kind": self.kind,
                      "mode": self.mode}
            registry.counter("sampler.batches", **labels).inc()
            registry.counter("sampler.items", **labels).inc(items)
            registry.counter("sampler.fetch_bytes", **labels).inc(fetch_bytes)

        gpu = machine.gpu
        if gpu is None:
            raise DeviceError("GPU sampling requested on a machine without GPU")
        launch = profile.gpu_sampler_per_hop_launch * hops
        if self.mode == "gpu":
            seconds = launch + items * profile.gpu_sampler_per_item
            gpu.execute(KernelCost(name=f"{self.kind}.sample.gpu", fixed_time=seconds))
            gpu.execute(
                KernelCost(
                    name=f"{self.kind}.fetch.gpu",
                    bytes_moved=2.0 * fetch_bytes,
                    compute_eff=0.7,
                    memory_eff=0.7,
                )
            )
        else:  # uva: zero-copy reads of pinned host memory
            structure_bytes = items * 16.0  # indices + offsets per element
            uva_seconds = machine.pcie.uva_read_time(structure_bytes + fetch_bytes)
            seconds = launch + max(items * profile.gpu_sampler_per_item, uva_seconds)
            gpu.execute(KernelCost(name=f"{self.kind}.sample.uva", fixed_time=seconds))
            machine.pcie.record_uva(structure_bytes + fetch_bytes)

    def _charge_sample_kernel(self, items: float) -> None:
        """The CPU structure-sampling half (datapipe ``NeighborSampler``)."""
        profile = self.framework.profile
        registry = telemetry.metrics()
        if registry is not None:
            labels = {"framework": self.framework.name, "kind": self.kind,
                      "mode": self.mode}
            registry.counter("sampler.batches", **labels).inc()
            registry.counter("sampler.items", **labels).inc(items)
        costs = profile.sampler_costs(self.kind)
        seconds = costs.per_batch + items * costs.per_item
        self.machine.cpu.execute(
            KernelCost(name=f"{self.kind}.sample", fixed_time=seconds)
        )

    def _charge_fetch_kernel(self, fetch_bytes: float) -> None:
        """The feature-gather half (datapipe ``FeatureFetcher``).

        Gathers rows out of the feature matrix, which lives on GPU when
        the experiment pre-loaded it (case study 1).
        """
        registry = telemetry.metrics()
        if registry is not None:
            labels = {"framework": self.framework.name, "kind": self.kind,
                      "mode": self.mode}
            registry.counter("sampler.fetch_bytes", **labels).inc(fetch_bytes)
        fetch_device = self._feature_device()
        eff = self.framework.profile.cost.eff("index", fetch_device.kind)
        fetch_device.execute(
            KernelCost(
                name=f"{self.kind}.fetch",
                bytes_moved=2.0 * fetch_bytes,
                compute_eff=eff[0],
                memory_eff=eff[1],
            )
        )

    def _feature_device(self) -> Device:
        """Where fetched batch features land."""
        if self.mode in ("gpu", "uva") or self.fgraph.preloaded_gpu:
            return self.machine.gpu
        return self.machine.cpu


class _BlockSamplerWrapper(_SamplerWrapper):
    """Shared assembly for block-batch samplers (neighbor / layer-wise)."""

    def epoch_requests(self, shuffle: bool = True) -> Iterator[np.ndarray]:
        """The ``ItemSampler`` stage: seed-node batches in epoch order."""
        train = self.fgraph.graph.train_nodes()
        if shuffle:
            train = self.algorithm.rng.permutation(train)
        step = self.algorithm.actual_batch_size
        for start in range(0, train.size, step):
            roots = train[start:start + step]
            if roots.size:
                yield roots

    def sample_structure(self, roots: np.ndarray) -> BlockSample:
        """The ``NeighborSampler`` stage: blocks + the sample kernel."""
        with self.framework.activate():
            sample = self.algorithm.sample(roots)
            if self.mode == "cpu":
                self._charge_sample_kernel(sample.work.items)
            return sample

    def assemble_features(self, sample: BlockSample) -> FrameworkBatch:
        """The ``FeatureFetcher`` stage: gather rows, build the batch."""
        with self.framework.activate():
            if self.mode == "cpu":
                self._charge_fetch_kernel(sample.work.fetch_bytes)
            else:
                self._charge_device_sampling(sample.work.items,
                                             sample.work.fetch_bytes,
                                             hops=len(sample.blocks))
            return self._build_batch(sample)

    def _build_batch(self, sample: BlockSample) -> FrameworkBatch:
        registry = telemetry.metrics()
        if registry is not None:
            labels = {"kind": self.kind}
            edges = registry.histogram("sampler.block_edges", **labels)
            nodes = registry.histogram("sampler.block_nodes", **labels)
            for block in sample.blocks:
                edges.observe(block.src.size)
                nodes.observe(block.dst_nodes.size)
        device = self._feature_device()
        graph = self.fgraph.graph
        # Sampler blocks arrive relabeled and dst-grouped (block_locals /
        # induced_subgraph order="dst"), so skip the canonicalizing argsort.
        adjs = [
            SparseAdj.from_sorted_block(
                block.src,
                block.dst,
                num_src=block.src_nodes.size,
                num_dst=block.dst_nodes.size,
                device=self.machine.cpu if self.mode == "cpu" else device,
                node_scale=block.node_scale,
                edge_scale=block.edge_scale,
            )
            for block in sample.blocks
        ]
        input_scale = sample.blocks[0].edge_scale  # input frontier ratio
        features = self.fgraph.features_on(device)
        x = Tensor(
            features.data[sample.input_nodes],
            device=device,
            work_scale=max(1.0, input_scale),
        )
        y = graph.labels[sample.output_nodes]
        y_bytes = sample.output_nodes.size * graph.node_scale * (
            4.0 * y.shape[1] if y.ndim == 2 else 8.0
        )
        return FrameworkBatch(kind="blocks", adjs=adjs, x=x, y=y,
                              y_logical_nbytes=y_bytes,
                              input_nodes=sample.input_nodes)

    def num_batches(self) -> int:
        return self.algorithm.num_batches(int(self.fgraph.graph.train_mask.sum()))

    def sample(self, roots: np.ndarray) -> FrameworkBatch:
        return self.assemble_features(self.sample_structure(roots))

    def epoch(self, shuffle: bool = True) -> Iterator[FrameworkBatch]:
        for roots in self.epoch_requests(shuffle):
            yield self.sample(roots)


class WrappedNeighborSampler(_BlockSamplerWrapper):
    """GraphSAGE neighborhood sampler with CPU / GPU / UVA execution."""

    kind = "neighbor"

    def __init__(self, framework, fgraph, fanouts, batch_size, mode, seed):
        super().__init__(framework, fgraph, mode)
        if mode == "gpu" and not fgraph.preloaded_gpu:
            raise SamplerError(
                "GPU-based sampling requires the graph pre-loaded to GPU "
                "(call fgraph.preload_to_gpu() first)"
            )
        self.algorithm = NeighborSampler(fgraph.graph, fanouts, batch_size, seed)


class _SubgraphSamplerWrapper(_SamplerWrapper):
    """Shared assembly for subgraph-batch samplers (cluster / SAINT).

    Subgraph samplers have no separate seed-node requests: the epoch
    stream itself yields samples, so ``epoch_requests`` returns the
    algorithm's batch generator (pure numpy, charges nothing) and
    ``sample_structure`` prices the structure work it produced.
    """

    def _prepare(self) -> None:
        """One-time work before the first draw (ClusterGCN's partition)."""

    def epoch_requests(self) -> Iterator[SubgraphSample]:
        self._prepare()
        return self.algorithm.epoch_batches()

    def sample_structure(self, sample: SubgraphSample) -> SubgraphSample:
        with self.framework.activate():
            self._charge_sample_kernel(sample.work.items)
            return sample

    def assemble_features(self, sample: SubgraphSample) -> FrameworkBatch:
        with self.framework.activate():
            self._charge_fetch_kernel(sample.work.fetch_bytes)
            return self._build_batch(sample)

    def num_batches(self) -> int:
        return self.algorithm.num_batches()

    def sample(self, *request) -> FrameworkBatch:
        """One batch; ``request`` is whatever the algorithm's ``sample``
        takes (cluster: part ids, SAINT random walk: roots, both optional)."""
        self._prepare()
        return self.assemble_features(
            self.sample_structure(self.algorithm.sample(*request)))

    def epoch(self) -> Iterator[FrameworkBatch]:
        for sample in self.epoch_requests():
            yield self.assemble_features(self.sample_structure(sample))

    def _build_batch(self, sample: SubgraphSample) -> FrameworkBatch:
        registry = telemetry.metrics()
        if registry is not None:
            labels = {"kind": self.kind}
            registry.histogram("sampler.subgraph_edges", **labels).observe(sample.src.size)
            registry.histogram("sampler.subgraph_nodes", **labels).observe(sample.num_nodes)
        device = self._feature_device()
        graph = self.fgraph.graph
        adj = SparseAdj.from_sorted_block(
            sample.src,
            sample.dst,
            num_src=sample.num_nodes,
            num_dst=sample.num_nodes,
            device=device,
            node_scale=sample.node_scale,
            edge_scale=sample.edge_scale,
        )
        features = self.fgraph.features_on(device)
        x = Tensor(
            features.data[sample.nodes],
            device=device,
            work_scale=sample.node_scale,
        )
        y = graph.labels[sample.nodes]
        train_rows = np.nonzero(graph.train_mask[sample.nodes])[0]
        y_bytes = sample.num_nodes * sample.node_scale * (
            4.0 * y.shape[1] if y.ndim == 2 else 8.0
        )
        return FrameworkBatch(kind="subgraph", adjs=[adj], x=x, y=y,
                              y_logical_nbytes=y_bytes, train_rows=train_rows,
                              input_nodes=sample.nodes)


class WrappedClusterSampler(_SubgraphSamplerWrapper):
    """ClusterGCN sampler: charges METIS once, then cluster aggregation."""

    kind = "cluster"

    def __init__(self, framework, fgraph, num_parts, parts_per_batch, seed):
        super().__init__(framework, fgraph, mode="cpu")
        self.algorithm = ClusterSampler(fgraph.graph, num_parts, parts_per_batch, seed)
        self._partitioned = False

    def ensure_partitioned(self) -> None:
        """Run (and charge) the one-time METIS-substitute partitioning."""
        if self._partitioned:
            return
        with self.framework.activate():
            _ = self.algorithm.partition  # actually compute it
            seconds = (
                self.framework.profile.metis_per_edge
                * self.algorithm.partition_work_items
            )
            self.machine.cpu.execute(KernelCost(name="metis.partition", fixed_time=seconds))
        self._partitioned = True

    _prepare = ensure_partitioned  # the hook sample()/epoch_requests() call


class WrappedSaintSampler(_SubgraphSamplerWrapper):
    """GraphSAINT random-walk sampler."""

    kind = "saint_rw"

    def __init__(self, framework, fgraph, num_roots, walk_length, seed):
        super().__init__(framework, fgraph, mode="cpu")
        self.algorithm = RandomWalkSampler(fgraph.graph, num_roots, walk_length, seed)
