"""Framework-independent graph sampling algorithms.

Three samplers, matching the paper's Section 4.1 configuration:

* :mod:`~repro.sampling.neighbor` — GraphSAGE's k-hop neighborhood
  sampler (fanouts 25/10, batch 512 roots).
* :mod:`~repro.sampling.cluster` — ClusterGCN's METIS-partition +
  cluster-aggregation sampler (2000 parts, 50 per batch).
* :mod:`~repro.sampling.randomwalk` — GraphSAINT's random-walk sampler
  (3000 roots, walk length 2).

Each algorithm returns both the sampled index structures *and* a
:class:`~repro.sampling.base.SampleWork` record of items processed, which
the framework wrappers convert into charged time using their per-item
costs (DGL: C++/OpenMP rates; PyG: Python rates — Observation 2).

All samplers are vectorized (no per-seed Python loops, no per-element
dict relabeling — see :mod:`repro.sampling.relabel`), so the native-vs-
Python cost difference stays a *modeled* quantity in
:mod:`repro.frameworks.profiles` rather than an accident of our own
implementation overhead.
"""

from repro.sampling.base import SampleWork, BlockSample, SubgraphSample
from repro.sampling.relabel import block_locals, gather_neighborhoods
from repro.sampling.neighbor import NeighborSampler
from repro.sampling.cluster import ClusterSampler
from repro.sampling.randomwalk import RandomWalkSampler
from repro.sampling.saint_variants import SaintEdgeSampler, SaintNodeSampler
from repro.sampling.layerwise import FastGCNSampler, LadiesSampler

__all__ = [
    "BlockSample",
    "ClusterSampler",
    "FastGCNSampler",
    "LadiesSampler",
    "NeighborSampler",
    "RandomWalkSampler",
    "SaintEdgeSampler",
    "SaintNodeSampler",
    "SampleWork",
    "SubgraphSample",
    "block_locals",
    "gather_neighborhoods",
]
