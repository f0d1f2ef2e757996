"""GraphSAGE's k-hop neighborhood sampler.

Sampling runs backwards from the batch roots (DGL block convention): the
*last* fanout is applied to the roots, earlier fanouts to successive
frontiers, producing one bipartite block per GNN layer.

The sampler is fully vectorized: the whole frontier is processed in one
pass (degree computation, take-all slicing, and a single batched draw for
the subsampled seeds — see :func:`sample_block_neighbors`), and block
relabeling goes through :mod:`repro.sampling.relabel`.  Framework-level
sampler cost (DGL's native C++ rates vs PyG's Python rates) is *modeled*
by :mod:`repro.frameworks.profiles`, not an accident of our own Python
overhead.

Scaling: the driver shrinks the paper's batch size (512 roots) by the
dataset's node scale, so the number of batches per epoch matches the
paper-scale run.  Per-root subtree sizes are absolute (fanout-capped), but
the scaled-down graph has lower degrees than the logical one, so each hop
carries a *degree correction* ``min(f, d_logical) / min(f, d_actual)``
folded into the blocks' logical edge scale.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SamplerError
from repro.graph.formats import INDEX_DTYPE
from repro.graph.graph import Graph
from repro.sampling.base import Block, BlockSample, SampleWork
from repro.sampling.relabel import block_locals, flat_positions


def sample_block_neighbors(
    indptr: np.ndarray,
    indices: np.ndarray,
    seeds: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
):
    """Sample up to ``fanout`` neighbors (without replacement) per seed.

    Returns (srcs, dsts) as global ids (dst = the seed) and the number of
    neighbor candidates examined.  Output edges are grouped by seed in
    ``seeds`` order.

    The whole frontier is handled at once: degrees come from one ``indptr``
    difference; seeds with ``degree <= fanout`` have their entire neighbor
    list sliced out via offset arithmetic; the remaining seeds draw one
    batch of uniform keys and keep the ``fanout`` smallest per seed — a
    segmented sort-of-uniforms scheme that is exactly uniform sampling
    without replacement per seed.
    """
    if fanout < 1:
        raise SamplerError("fanout must be >= 1")
    seeds = np.asarray(seeds, dtype=INDEX_DTYPE)
    empty = np.empty(0, dtype=INDEX_DTYPE)
    if seeds.size == 0:
        return empty, empty, 0
    starts = indptr[seeds]
    degrees = (indptr[seeds + 1] - starts).astype(INDEX_DTYPE, copy=False)
    examined = int(degrees.sum())
    if examined == 0:
        return empty, empty, 0

    # Per-seed number of sampled neighbors, and each seed's slice of the
    # output array (grouped by seed, in input order).
    counts = np.minimum(degrees, fanout)
    out_starts = np.cumsum(counts) - counts
    srcs = np.empty(int(counts.sum()), dtype=INDEX_DTYPE)

    take_all = degrees <= fanout
    take_idx = np.nonzero(take_all & (degrees > 0))[0]
    if take_idx.size:
        positions = flat_positions(starts[take_idx], degrees[take_idx])
        srcs[flat_positions(out_starts[take_idx], counts[take_idx])] = (
            indices[positions]
        )

    sub_idx = np.nonzero(~take_all)[0]
    if sub_idx.size:
        sub_degrees = degrees[sub_idx]
        candidates = flat_positions(starts[sub_idx], sub_degrees)
        # One uniform key per candidate; the fanout smallest keys of each
        # seed's segment are a uniform without-replacement sample.  Keys
        # live in [0, 1), so segment + key sorts by segment then key in a
        # single argsort pass.
        keys = rng.random(candidates.size)
        segment = np.repeat(np.arange(sub_idx.size), sub_degrees)
        order = np.argsort(segment + keys)
        rank = (np.arange(candidates.size, dtype=INDEX_DTYPE)
                - np.repeat(np.cumsum(sub_degrees) - sub_degrees, sub_degrees))
        chosen = candidates[order[rank < fanout]]
        srcs[flat_positions(out_starts[sub_idx], counts[sub_idx])] = (
            indices[chosen]
        )

    dsts = np.repeat(seeds, counts)
    return srcs, dsts, examined


class NeighborSampler:
    """Mini-batch iterator over root batches with per-layer fanouts.

    ``seed=None`` leaves the RNG nondeterministic; the framework wrappers
    and the benchmark harness always pass an explicit seed (default 0) so
    repeated runs are reproducible.
    """

    def __init__(
        self,
        graph: Graph,
        fanouts: Sequence[int] = (25, 10),
        batch_size: int = 512,
        seed: Optional[int] = None,
    ) -> None:
        if not fanouts:
            raise SamplerError("fanouts must be non-empty")
        self.fanouts = tuple(int(f) for f in fanouts)
        if any(f < 1 for f in self.fanouts):
            raise SamplerError(
                f"fanouts must all be >= 1, got {self.fanouts}"
            )
        self.graph = graph
        self.paper_batch_size = int(batch_size)
        # Shrink roots by node scale so batches/epoch match paper scale.
        self.actual_batch_size = max(2, int(round(batch_size / graph.node_scale)))
        self.rng = np.random.default_rng(seed)
        self._indptr = graph.adj.indptr
        self._indices = graph.adj.indices
        self._id_table = graph.adj.id_table
        # Mean degrees drive the per-hop degree correction.
        self._d_actual = max(1.0, graph.num_edges / max(1, graph.num_nodes))
        self._d_logical = max(1.0, graph.stats.avg_degree)

    def num_batches(self, train_nodes: int) -> int:
        return max(1, int(np.ceil(train_nodes / self.actual_batch_size)))

    def hop_correction(self, fanout: int) -> float:
        """Logical/actual sampled-neighbor ratio for one hop."""
        return min(fanout, self._d_logical) / min(fanout, self._d_actual)

    def sample(self, roots: np.ndarray) -> BlockSample:
        """Build one mini-batch of blocks for the given batch roots."""
        roots = np.asarray(roots, dtype=INDEX_DTYPE)
        if roots.size == 0:
            raise SamplerError("cannot sample an empty root batch")
        node_scale = self.graph.node_scale
        work = SampleWork()
        blocks: List[Block] = []
        seeds = roots
        cumulative = node_scale  # logical/actual ratio of the current frontier
        # Output-side layer first (last fanout applies to the roots).
        for fanout in reversed(self.fanouts):
            src_g, dst_g, examined = sample_block_neighbors(
                self._indptr, self._indices, seeds, fanout, self.rng
            )
            correction = self.hop_correction(fanout)
            edge_scale = cumulative * correction
            # Charged items: neighbors examined plus entries sampled.
            work.items += (examined + src_g.size) * edge_scale

            # Block node set: dst nodes first (self-inclusion), then new
            # srcs; endpoints relabeled through the graph's id table.
            src_nodes, src_local, dst_local = block_locals(
                src_g, dst_g, seeds, self._id_table)
            blocks.append(
                Block(
                    src_nodes=src_nodes,
                    dst_nodes=seeds,
                    src=src_local,
                    dst=dst_local,
                    edge_scale=edge_scale,
                    node_scale=cumulative,
                )
            )
            seeds = src_nodes
            cumulative = edge_scale

        blocks.reverse()  # input-side block first
        input_nodes = blocks[0].src_nodes
        work.fetch_bytes = (
            4.0 * input_nodes.size * cumulative * self.graph.num_features
        )
        return BlockSample(
            blocks=blocks,
            input_nodes=input_nodes,
            output_nodes=roots,
            work=work,
        )

    def epoch_batches(self, shuffle: bool = True):
        """Yield batches of roots covering the training set once."""
        train = self.graph.train_nodes()
        if shuffle:
            train = self.rng.permutation(train)
        for start in range(0, train.size, self.actual_batch_size):
            roots = train[start:start + self.actual_batch_size]
            if roots.size:
                yield self.sample(roots)
