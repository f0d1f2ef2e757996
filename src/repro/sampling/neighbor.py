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

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import SamplerError
from repro.graph.formats import INDEX_DTYPE
from repro.graph.graph import Graph
from repro.sampling.base import Block, BlockSample, SampleWork
from repro.sampling.relabel import block_locals, flat_positions


#: A subsampled seed of degree ``d`` sorts only the candidates whose key
#: is below ``(f + SURVIVOR_SPREAD * sqrt(f) + SURVIVOR_SLACK) / d``.  The
#: number kept is binomial with that mean, so fewer than ``f`` survivors
#: (the full-sort fallback) is a many-sigma event.
SURVIVOR_SPREAD = 4.0
SURVIVOR_SLACK = 8.0


def survivor_limit(fanout: int, degrees: np.ndarray) -> np.ndarray:
    """Per-segment key bound of the partial selection."""
    return (fanout + SURVIVOR_SPREAD * math.sqrt(fanout)
            + SURVIVOR_SLACK) / degrees


def _full_sort_positions(keys, starts, degrees, fanout):
    """CSR positions of each segment's ``fanout`` smallest keys, in key
    order: one argsort of ``segment + key`` over every candidate."""
    candidates = flat_positions(starts, degrees)
    segment = np.repeat(np.arange(degrees.size), degrees)
    order = np.argsort(segment + keys)
    rank = (np.arange(keys.size, dtype=INDEX_DTYPE)
            - np.repeat(np.cumsum(degrees) - degrees, degrees))
    return candidates[order[rank < fanout]]


def _smallest_key_positions(keys, starts, degrees, fanout):
    """:func:`_full_sort_positions`, bit for bit, sorting only the
    candidates whose key is below :func:`survivor_limit`.

    Survivors carry the very ``segment + key`` values the full sort
    would, so the result is the same whenever the survivors' order decides
    every pick.  Three fallbacks run the full sort where it might not:
    (a) a segment keeps fewer than ``fanout`` survivors; (b) two survivor
    values are equal, or a survivor's value is its segment number (its
    key vanished in the sum, so it may tie the previous segment's
    rounded-up top key); (c) a segment's last pick is not strictly below
    ``fl(segment + limit)``, the least value a non-survivor rounds to.
    """
    # Array methods, not ``np.*`` wrappers: a call sees ~5 k keys, so
    # per-call dispatch is a visible share of its cost.
    ends = degrees.cumsum()
    limit = survivor_limit(fanout, degrees)
    survivors = (keys < limit.repeat(degrees)).nonzero()[0]
    kept = survivors.searchsorted(ends)  # survivors in segments <= s
    firsts = np.empty_like(kept)
    firsts[0] = 0
    firsts[1:] = kept[:-1]
    per_segment = kept - firsts
    if per_segment.min() < fanout:  # (a)
        return _full_sort_positions(keys, starts, degrees, fanout)
    ids = np.arange(degrees.size)
    segment = ids.repeat(per_segment)
    values = segment + keys[survivors]
    order = values.argsort()
    ranked = values[order]
    if ((ranked[1:] == ranked[:-1]).any()  # (b) a tie
            or (values == segment).any()  # (b) a vanished key
            or (ranked[firsts + (fanout - 1)] >= ids + limit).any()):  # (c)
        return _full_sort_positions(keys, starts, degrees, fanout)
    picks = survivors[order[(firsts[:, None] + np.arange(fanout)).ravel()]]
    return picks + (starts - ends + degrees).repeat(fanout)


def sample_block_neighbors(
    indptr: np.ndarray,
    indices: np.ndarray,
    seeds: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
):
    """Sample up to ``fanout`` neighbors (without replacement) per seed.

    Returns ``(srcs, counts, examined)``: the sampled neighbors as global
    ids, grouped by seed in ``seeds`` order; how many each seed got, so
    the edges' local destinations are
    ``np.repeat(np.arange(seeds.size), counts)``; and the number of
    neighbor candidates examined.

    The whole frontier is handled at once: degrees come from one ``indptr``
    difference; seeds with ``degree <= fanout`` keep their entire neighbor
    list; the remaining seeds draw one batch of uniform keys and keep the
    ``fanout`` smallest per seed — a segmented sort-of-uniforms scheme
    that is exactly uniform sampling without replacement per seed.  Only
    the keys below a per-seed bound are sorted
    (:func:`_smallest_key_positions`); the picks, their order and the RNG
    draws are those of sorting every key.  The output is one array of CSR
    positions and one ``indices`` gather.
    """
    if fanout < 1:
        raise SamplerError("fanout must be >= 1")
    seeds = np.asarray(seeds, dtype=INDEX_DTYPE)
    starts = indptr[seeds]
    degrees = (indptr[seeds + 1] - starts).astype(INDEX_DTYPE, copy=False)
    examined = int(degrees.sum())
    counts = np.minimum(degrees, fanout)
    # Take-all seeds keep their row; subsampled seeds' first ``fanout``
    # slots are overwritten with the picks below.
    positions = flat_positions(starts, counts)
    sub = degrees > fanout
    if sub.any():
        sub_degrees = degrees[sub]
        # One uniform key per candidate, drawn in seed order.
        keys = rng.random(int(sub_degrees.sum()))
        positions[np.repeat(sub, counts)] = _smallest_key_positions(
            keys, starts[sub], sub_degrees, fanout)
    return indices[positions], counts, examined


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
            src_g, counts, examined = sample_block_neighbors(
                self._indptr, self._indices, seeds, fanout, self.rng
            )
            correction = self.hop_correction(fanout)
            edge_scale = cumulative * correction
            # Charged items: neighbors examined plus entries sampled.
            work.items += (examined + src_g.size) * edge_scale

            # Block node set: dst nodes first (self-inclusion), then new
            # srcs relabeled through the graph's id table.  Edges come
            # grouped by seed, so each one's dst is its seed's slot.
            dst_local = np.repeat(np.arange(seeds.size, dtype=INDEX_DTYPE),
                                  counts)
            src_nodes, src_local, _ = block_locals(
                src_g, np.empty(0, dtype=INDEX_DTYPE), seeds, self._id_table)
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
