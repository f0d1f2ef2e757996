"""Sparse adjacency formats and conversions.

Both formats describe a directed edge set over ``num_nodes`` nodes;
undirected graphs store both directions.  Conversions are implemented with
numpy sorting primitives (no scipy) so their work can be charged faithfully
by the kernels layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphFormatError

INDEX_DTYPE = np.int64


def _as_index(arr) -> np.ndarray:
    out = np.asarray(arr, dtype=INDEX_DTYPE)
    if out.ndim != 1:
        raise GraphFormatError("index arrays must be 1-D")
    return out


def stable_order(ids: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(ids, kind="stable")`` for ids in ``[0, bound]``.

    The ids are sorted as the narrowest unsigned type that holds ``bound``;
    numpy's stable sort of keys of 16 bits or less is a radix sort, and a
    stable sort by equal keys is the same permutation.  The caller checks
    the range first: an id outside it would wrap in the cast.
    """
    return np.argsort(ids.astype(np.min_scalar_type(bound), copy=False),
                      kind="stable")


class IdTable:
    """Dense ``global id -> local index`` scratch over ``[0, num_nodes)``.

    Relabeling a sampled edge list and testing subgraph membership are
    both lookups in an id map; a table sized to the graph answers them
    with one gather, where a sort-based map pays ``O(E log E)`` per batch.
    The contract that keeps a use ``O(ids touched)`` and never
    ``O(num_nodes)``: every entry of :attr:`local` is ``-1`` between uses,
    and a user that assigns entries resets exactly those entries before
    it returns (in a ``finally``, so a raised error leaks nothing into the
    next use).  Ids index the table raw — pass anything that did not come
    out of the owning graph's own index arrays through
    :meth:`require_ids` first.
    """

    def __init__(self, num_nodes: int) -> None:
        self.local = np.full(num_nodes, -1, dtype=INDEX_DTYPE)

    def require_ids(self, what: str, error: type = GraphFormatError,
                    **named_ids: np.ndarray) -> None:
        """Raise ``error`` naming the first id outside ``[0, num_nodes)``
        (a negative id would silently wrap) of the first named array that
        has one."""
        size = self.local.size
        for name, ids in named_ids.items():
            # One pass: a negative int64 read as uint64 exceeds any size.
            if ids.size and int(ids.view(np.uint64).max()) >= size:
                bad = int(ids[(ids < 0) | (ids >= size)][0])
                raise error(f"{what}: {name} id {bad} outside the graph's "
                            f"[0, {size}) node range")

    def assign_slots(self, ids: np.ndarray, what: str,
                     error: type = GraphFormatError) -> None:
        """Map ``ids[i] -> i``; raise ``error`` naming the first repeated
        id.  One gather-compare finds a repeat: it lost its slot to a
        later occurrence.  The caller resets ``local[ids]`` in its
        ``finally``, error or not."""
        slots = np.arange(ids.size, dtype=INDEX_DTYPE)
        self.local[ids] = slots
        lost = self.local[ids] != slots
        if lost.any():
            first = ids[np.isin(ids, ids[lost])][0]
            raise error(f"{what} must be duplicate-free "
                        f"(first duplicate: {int(first)})")


@dataclass(frozen=True)
class AdjacencyCOO:
    """Edge list: ``(src[i], dst[i])`` is the i-th directed edge."""

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", _as_index(self.src))
        object.__setattr__(self, "dst", _as_index(self.dst))
        if self.src.shape != self.dst.shape:
            raise GraphFormatError("src and dst must have equal length")
        if self.num_nodes < 0:
            raise GraphFormatError("num_nodes must be non-negative")
        if self.src.size and (self.src.max() >= self.num_nodes or self.src.min() < 0):
            raise GraphFormatError("src index out of range")
        if self.dst.size and (self.dst.max() >= self.num_nodes or self.dst.min() < 0):
            raise GraphFormatError("dst index out of range")

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    def to_csr(self) -> "AdjacencyCSR":
        """Sort edges by source and build row pointers."""
        order = stable_order(self.src, self.num_nodes)
        sorted_src = self.src[order]
        indptr = np.zeros(self.num_nodes + 1, dtype=INDEX_DTYPE)
        counts = np.bincount(sorted_src, minlength=self.num_nodes)
        indptr[1:] = np.cumsum(counts)
        return AdjacencyCSR(self.num_nodes, indptr, self.dst[order], edge_ids=order)

    def reverse(self) -> "AdjacencyCOO":
        return AdjacencyCOO(self.num_nodes, self.dst, self.src)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.num_nodes).astype(INDEX_DTYPE)


@dataclass(frozen=True)
class AdjacencyCSR:
    """Compressed sparse row: out-neighbors of node u are
    ``indices[indptr[u]:indptr[u+1]]``.

    ``edge_ids`` maps each CSR position back to the originating COO edge id,
    which keeps per-edge data (attention scores, weights) aligned across
    format conversions.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "indptr", _as_index(self.indptr))
        object.__setattr__(self, "indices", _as_index(self.indices))
        if self.indptr.size != self.num_nodes + 1:
            raise GraphFormatError("indptr must have num_nodes + 1 entries")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise GraphFormatError("indptr endpoints are inconsistent")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphFormatError("indptr must be non-decreasing")
        if self.indices.size and (self.indices.max() >= self.num_nodes or self.indices.min() < 0):
            raise GraphFormatError("neighbor index out of range")

    @property
    def num_edges(self) -> int:
        return int(self.indices.size)

    def neighbors(self, node: int) -> np.ndarray:
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def id_table(self) -> IdTable:
        """The relabel scratch over this graph's node ids, built on first
        use and shared by everything that relabels against this graph
        (samplers, block builders, :func:`induced_subgraph`)."""
        return IdTable(self.num_nodes)

    def to_coo(self) -> AdjacencyCOO:
        src = np.repeat(np.arange(self.num_nodes, dtype=INDEX_DTYPE), np.diff(self.indptr))
        return AdjacencyCOO(self.num_nodes, src, self.indices)


def flat_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[i], starts[i] + lengths[i])`` ranges.

    The offset-arithmetic core of every vectorized CSR gather: equivalent
    to ``np.concatenate([np.arange(s, s + l) for s, l in zip(starts,
    lengths)])`` without the Python loop.
    """
    lengths = np.asarray(lengths, dtype=INDEX_DTYPE)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    starts = np.asarray(starts, dtype=INDEX_DTYPE)
    segment_starts = np.cumsum(lengths) - lengths
    return (np.repeat(starts - segment_starts, lengths)
            + np.arange(total, dtype=INDEX_DTYPE))


def gather_neighborhoods(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather the CSR neighbor lists of every node in ``nodes`` at once.

    Returns ``(neighbors, degrees, positions)`` where ``neighbors`` is the
    concatenation of each node's neighbor list (in ``nodes`` order),
    ``degrees`` the per-node counts, and ``positions`` the CSR edge
    positions each gathered neighbor came from (for edge-id tracking).
    """
    nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
    starts = indptr[nodes]
    degrees = (indptr[nodes + 1] - starts).astype(INDEX_DTYPE, copy=False)
    positions = flat_positions(starts, degrees)
    return indices[positions], degrees, positions


def induced_subgraph(
    csr: AdjacencyCSR, nodes: np.ndarray, order: str = "src",
) -> Tuple[AdjacencyCOO, np.ndarray]:
    """Node-induced subgraph with relabelled node ids.

    Returns the subgraph edge list (in local ids, ordered by the position
    of each node in ``nodes``) and the original edge ids kept.  ``nodes``
    must be duplicate-free ids of the graph; an id out of range or
    repeated raises :class:`GraphFormatError` naming it.

    ``order`` picks which endpoint the gathered CSR row becomes: with
    ``"src"`` (the default) edges come out src-sorted; with ``"dst"`` the
    row is the destination and edges come out **dst-sorted** — the
    canonical :class:`~repro.kernels.adj.SparseAdj` order, so downstream
    adjacency construction can skip its argsort.  For the symmetrized
    graphs used throughout this repo the two orientations describe the
    same edge set.

    Only the selected rows are touched: the members' neighbor lists are
    gathered in one vectorized pass and filtered by a membership lookup
    in the graph's :class:`IdTable`, so the cost is O(incident edges of
    ``nodes``), not O(all edges) or O(all nodes).  Only the kept edges
    learn their owner: a binary search of each kept position in the
    members' cumulative degrees, not a repeat over every incident edge.
    """
    if order not in ("src", "dst"):
        raise ValueError("order must be 'src' or 'dst'")
    nodes = _as_index(nodes)
    table = csr.id_table
    table.require_ids("induced_subgraph", nodes=nodes)
    neighbors, degrees, positions = gather_neighborhoods(
        csr.indptr, csr.indices, nodes
    )
    try:
        table.assign_slots(nodes, "induced_subgraph: nodes")
        local_other = table.local[neighbors]
    finally:
        table.local[nodes] = -1
    keep = np.flatnonzero(local_other >= 0)
    local_owner = np.searchsorted(np.cumsum(degrees), keep, side="right")
    local_other = local_other[keep]
    if order == "src":
        sub = AdjacencyCOO(nodes.size, local_owner, local_other)
    else:
        sub = AdjacencyCOO(nodes.size, local_other, local_owner)
    return sub, positions[keep]


def remove_self_loops(coo: AdjacencyCOO) -> AdjacencyCOO:
    keep = coo.src != coo.dst
    return AdjacencyCOO(coo.num_nodes, coo.src[keep], coo.dst[keep])


def coalesce(coo: AdjacencyCOO, both_directions: bool = False) -> AdjacencyCOO:
    """Remove duplicate edges, keeping the edge set sorted by (src, dst);
    ``both_directions`` first adds every edge's reverse, as packed keys.

    One in-place sort of the packed ``src * n + dst`` keys, then an
    adjacent-difference mask keeps the first key of every run.
    """
    if coo.num_edges == 0:
        return coo
    n = coo.num_nodes
    keys = coo.src * n + coo.dst
    if both_directions:
        keys = np.concatenate([keys, coo.dst * n + coo.src])
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    unique = keys[first]
    del keys, first
    src, dst = np.divmod(unique, n)
    return AdjacencyCOO(n, src, dst)


def symmetrize(coo: AdjacencyCOO) -> AdjacencyCOO:
    """Make the edge set undirected (add reverse edges, dedupe)."""
    return coalesce(coo, both_directions=True)
