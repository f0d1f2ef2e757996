"""Partial GPU feature caching (the paper's pre-loading alternative).

Section 4.3 notes that full pre-loading "is only feasible when the GPU
memory is large enough" and suggests the alternative of caching "the
features of nodes that are most frequently used for model training"
(Dong et al., KDD 2021 [12]).  This module implements that strategy:

* a degree-ordered (or random) subset of node features is copied to GPU
  up front and pinned in the ledger;
* per-batch movement then transfers only the cache *misses* over PCIe,
  while hits are gathered from GPU memory.

High-degree nodes appear in far more sampled neighborhoods than their
population share, so a small degree-ordered cache absorbs a large hit
fraction — the effect the ablation bench
(`benchmarks/test_ablation_feature_cache.py`) quantifies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DeviceError
from repro.frameworks.base import FrameworkGraph
from repro.graph.formats import INDEX_DTYPE
from repro.telemetry import runtime as telemetry

POLICIES = ("degree", "random")


class GpuFeatureCache:
    """A pinned subset of node features resident in GPU memory."""

    def __init__(self, fgraph: FrameworkGraph, fraction: float = 0.25,
                 policy: str = "degree", seed: Optional[int] = None) -> None:
        if not (0.0 < fraction <= 1.0):
            raise ValueError("cache fraction must be in (0, 1]")
        if policy not in POLICIES:
            raise ValueError(f"unknown cache policy {policy!r}")
        machine = fgraph.machine
        if machine.gpu is None:
            raise DeviceError("feature caching requires a GPU")
        self.fgraph = fgraph
        self.fraction = fraction
        self.policy = policy

        graph = fgraph.graph
        count = max(1, int(round(fraction * graph.num_nodes)))
        if policy == "degree":
            degrees = graph.adj.degrees()
            # Stable index-tiebroken hot set: among equal-degree nodes the
            # lower node id wins, so the cached set is a deterministic
            # contract (argsort on descending degrees leaves tie order
            # unspecified).  lexsort orders by the *last* key first.
            order = np.lexsort((np.arange(degrees.size),
                                -degrees.astype(np.int64)))
            cached = order[:count].astype(INDEX_DTYPE)
        else:
            rng = np.random.default_rng(seed)
            cached = rng.choice(graph.num_nodes, size=count,
                                replace=False).astype(INDEX_DTYPE)
        self.cached_nodes = np.sort(cached)
        self._is_cached = np.zeros(graph.num_nodes, dtype=bool)
        self._is_cached[self.cached_nodes] = True

        # Upfront: copy the cached rows and pin them in GPU memory.
        logical_bytes = int(
            4.0 * count * graph.node_scale * graph.num_features
        )
        machine.pcie.h2d(logical_bytes, tag="feature-cache-fill")
        self._allocation = machine.gpu.memory.alloc(logical_bytes,
                                                    label="feature-cache")
        self.hits = 0
        self.misses = 0

    def hit_mask(self, nodes: np.ndarray) -> np.ndarray:
        """Boolean mask of which requested nodes are cache hits.

        Pure query — does not touch the hit/miss statistics, so callers
        may probe the same batch repeatedly without skewing
        :meth:`hit_rate`.  Use :meth:`record` on the one lookup that
        actually services a batch.
        """
        nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
        return self._is_cached[nodes]

    def record(self, nodes: np.ndarray) -> np.ndarray:
        """Account one serviced batch: update hit/miss counters.

        Returns the same mask as :meth:`hit_mask` for convenience.
        """
        mask = self.hit_mask(nodes)
        hits = int(mask.sum())
        misses = int(mask.size - hits)
        self.hits += hits
        self.misses += misses
        registry = telemetry.metrics()
        if registry is not None:
            labels = {"policy": self.policy}
            registry.counter("feature_cache.hits", **labels).inc(hits)
            registry.counter("feature_cache.misses", **labels).inc(misses)
        return mask

    def hit_rate(self) -> float:
        """Observed hit fraction over all recorded lookups so far."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def release(self) -> None:
        """Unpin the cached features from GPU memory."""
        self.fgraph.machine.gpu.memory.release(self._allocation)
