"""Vectorized global->local id machinery shared by every sampler.

The paper attributes DGL's sampling advantage to native (C++-profile)
samplers with low per-item overhead (Observation 2, Figs. 4/6/10/14); the
reproduction models that difference through
:mod:`repro.frameworks.profiles`, so our *own* Python overhead must stay
out of the measurement.  This module replaces the per-element dict
lookups and ``np.fromiter`` generators the samplers used to relabel
global node ids into local block coordinates with whole-array passes, and
provides the CSR gather primitive the vectorized samplers are built on.

Primitives:

* :func:`block_locals` — the standard bipartite block layout (dst nodes
  are a prefix of src nodes, DGL convention) for one sampled edge list.
  It relabels through the graph's dense id table
  (:class:`~repro.graph.formats.IdTable`): gathers and scatters over the
  edges plus a sort of only the fresh unique ids, no sort of the edge
  list.  Every sampler and block builder goes through it.
* :func:`gather_neighborhoods` — concatenate the CSR neighbor lists of a
  whole frontier with ``np.repeat``/offset arithmetic (no per-seed loop).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import SamplerError
from repro.graph.formats import (
    INDEX_DTYPE,
    IdTable,
    flat_positions,
    gather_neighborhoods,
)

__all__ = [
    "gather_neighborhoods",
    "flat_positions",
    "block_locals",
]


def _require_ids_in_table(ids: np.ndarray, table: IdTable, what: str) -> None:
    """Raise unless every id indexes ``table`` (negatives would wrap)."""
    # One pass: a negative int64 reinterpreted as uint64 exceeds any size.
    if ids.size and int(ids.view(np.uint64).max()) >= table.local.size:
        raise SamplerError(
            f"relabel: {what} id outside the graph's "
            f"[0, {table.local.size}) node range"
        )


def block_locals(
    src_global: np.ndarray, dst_global: np.ndarray, dst_nodes: np.ndarray,
    table: IdTable,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build the local coordinates of one bipartite block.

    Returns ``(src_nodes, src_local, dst_local)`` with ``dst_nodes`` as a
    prefix of ``src_nodes`` (DGL block layout): seeds first in input
    order, then the ids of ``src_global`` that are not seeds, ascending.
    ``dst_nodes`` must be duplicate-free and every ``dst_global`` id must
    be a seed or a source; both are checked and raise
    :class:`SamplerError`.

    Relabeling goes through ``table``, the :class:`~repro.graph.formats.
    IdTable` of the graph the ids come from: the sources are deduplicated
    by writing a per-edge code and reading it back, the seeds are written
    over that (one gather-compare finds a repeated seed), only the
    distinct sources no seed overwrote are sorted, and the endpoints
    resolve with one gather each — O(E + U log U) for E edges and U fresh
    ids, against the O((S + E) log (S + E)) of sorting the concatenated
    ids.  The touched entries are reset before returning, error or not.

    Sortedness contract: when ``dst_global`` arrives grouped by
    ``dst_nodes`` in order (every sampler in this repo emits edges that
    way), ``dst_local`` is non-decreasing — i.e. the edges are already in
    :class:`~repro.kernels.adj.SparseAdj`'s canonical dst-sorted order,
    and the block builders may construct the adjacency through the
    argsort-free ``SparseAdj.from_sorted_block``.  Outputs are relabeled
    and in-range by construction, which is what lets that constructor
    skip full bounds re-validation.
    """
    src_global = np.asarray(src_global, dtype=INDEX_DTYPE)
    dst_global = np.asarray(dst_global, dtype=INDEX_DTYPE)
    dst_nodes = np.asarray(dst_nodes, dtype=INDEX_DTYPE)
    _require_ids_in_table(dst_nodes, table, "dst_nodes")
    _require_ids_in_table(src_global, table, "src_global")
    _require_ids_in_table(dst_global, table, "dst_global")

    local = table.local
    num_seeds = dst_nodes.size
    seed_slots = np.arange(num_seeds, dtype=INDEX_DTYPE)
    # Edge codes start past the seed slots, so an entry tells which of
    # the two wrote it last.
    edge_codes = np.arange(num_seeds, num_seeds + src_global.size,
                           dtype=INDEX_DTYPE)
    touched = src_global
    try:
        # Distinct source ids: every edge writes its code and exactly one
        # occurrence of each id reads its own code back.
        local[src_global] = edge_codes
        touched = src_global[local[src_global] == edge_codes]
        local[dst_nodes] = seed_slots
        if not np.array_equal(local[dst_nodes], seed_slots):
            # A repeated seed lost its slot to another occurrence.
            repeated = dst_nodes[local[dst_nodes] != seed_slots]
            first = dst_nodes[np.isin(dst_nodes, repeated)][0]
            raise SamplerError(
                f"relabel: dst_nodes must be duplicate-free "
                f"(first duplicate: {int(first)})"
            )
        fresh = np.sort(touched[local[touched] >= num_seeds])
        local[fresh] = np.arange(num_seeds, num_seeds + fresh.size,
                                 dtype=INDEX_DTYPE)
        src_local = local[src_global]
        dst_local = local[dst_global]
    finally:
        local[dst_nodes] = -1
        local[touched] = -1
    if dst_local.size and dst_local.min() < 0:
        missing = dst_global[dst_local < 0]
        raise SamplerError(
            f"relabel: {missing.size} id(s) not in the id map "
            f"(first missing: {int(missing[0])})"
        )
    return np.concatenate([dst_nodes, fresh]), src_local, dst_local
