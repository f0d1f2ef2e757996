"""The adjacency wrapper sparse kernels operate on.

A :class:`SparseAdj` describes a (possibly bipartite) directed edge set in
"aggregate src -> dst" orientation, with

* canonically ordered COO arrays for per-edge kernels,
* real scipy CSR math storage (rows = dst, data order == COO edge order)
  for fast SpMM,
* the device the structure lives on, and
* logical scale factors so charged work is paper-scale.

Only the COO arrays exist after construction.  Everything derived from
them — ``indptr``, the scipy CSR, its transpose, degrees, the src-order
permutation, the edge-incidence selectors — is built on first read and
then kept, so a gather/scatter step builds only the incidence it uses
and a batch nobody multiplies by builds nothing (DGL materialises sparse
formats on demand; PyG keeps ``edge_index`` COO until a ``SparseTensor``
is asked for).  :meth:`from_graph` goes one step further for the
full-graph adjacency: its canonical edge arrays are memoised on the
cached :class:`~repro.graph.graph.Graph` (``Graph.derived``).

The CSR structure is *reused* once built — weighted :meth:`matmul_data`
/ :meth:`rmatmul` swap the ``.data`` array in place instead of
reconstructing a scipy matrix, and :meth:`from_sorted_block` skips the
canonicalizing argsort for sampler-emitted blocks that are already
dst-sorted.  Segment reductions (:meth:`sum_edges`, :meth:`max_edges`)
exploit the dst-sorted invariant — one SpMM against a cached
edge-incidence selector (or ``ufunc.reduceat`` for non-float dtypes)
rather than a 20-30x slower buffered scatter.  None of this changes what
``charge(...)`` records — cost depends only on logical edge/node counts.
The naive formulation of each primitive is the test oracle
(``tests/kernel_oracle.py``).

Row reuse: an adjacency whose ``row_memo`` slot holds a :class:`RowMemo`
reads its weighted SpMM's source rows from the memo's feature store by
global id, computes only the rows the memo lacks and copies the rest
(see :meth:`SparseAdj.matmul_data`).  Only the serving engine sets it,
to the graph's one memo (:meth:`RowMemo.of`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import GraphFormatError
from repro.graph.formats import INDEX_DTYPE, gather_neighborhoods, stable_order
from repro.hostmem import mapped_rows
from repro.telemetry import runtime as telemetry


def _count_row_memo(reused: int, computed: int) -> None:
    """Guarded probe: kernel.row_memo.edges{outcome=reused|computed}."""
    registry = telemetry.metrics()
    if registry is not None:
        registry.counter("kernel.row_memo.edges", outcome="reused").inc(reused)
        registry.counter("kernel.row_memo.edges", outcome="computed").inc(computed)


class RowMemo:
    """Finished weighted-SpMM rows over a feature store, keyed by global
    destination node id.

    A row of a block's SpMM depends only on its destination's global id
    when the block holds that node's complete in-neighbourhood, the weights
    are a function of the node (``1/deg`` for the mean) and the source
    rows are the raw ``features``: the edges come in graph-CSR order and
    scipy accumulates each row sequentially, so recomputing the row
    elsewhere yields the same bytes.  An adjacency with a memo attached
    reads its source rows from ``features`` by global id
    (``src_nodes[cols]``), never from the gathered ``x``.

    Only rows of in-degree ``>= min_degree`` are kept; the others are
    recomputed.  Rows are appended to one slab of ``features.shape`` in
    the order they are first kept.  The slab is an anonymous mapping, not
    a heap block: only the pages written are resident, and it is unmapped
    with the memo.
    """

    def __init__(self, features: np.ndarray, min_degree: float) -> None:
        self.features = features
        num_nodes, width = features.shape
        self.slot = np.full(num_nodes, -1, dtype=INDEX_DTYPE)
        self.rows = mapped_rows((num_nodes, width))
        self.count = 0
        self.min_degree = min_degree

    @classmethod
    def of(cls, graph) -> "RowMemo":
        """The graph's one memo over its (read-only) feature store.

        A row is a function of the graph alone, so the memo lives in
        ``graph.derived`` as long as the dataset cache holds the graph,
        and every serving window on it reuses what the earlier ones kept.
        Only rows of at least twice the mean in-degree are kept: on a
        skewed graph they are few of the rows but much of the edge work,
        and the threshold bounds what a memo that never shrinks holds.
        """
        memo = graph.derived.get("RowMemo")
        if memo is None:
            memo = graph.derived["RowMemo"] = cls(
                graph.features,
                min_degree=2 * graph.num_edges / graph.num_nodes)
        return memo

    def store(self, keys: np.ndarray, rows: np.ndarray) -> None:
        end = self.count + keys.size
        self.rows[self.count:end] = rows
        self.slot[keys] = np.arange(self.count, end, dtype=INDEX_DTYPE)
        self.count = end


def _segment_reduceat(ufunc, ordered, indptr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[i] = ufunc.reduce(ordered[indptr[i]:indptr[i+1]])`` for nonempty rows.

    ``ordered`` must hold edge rows grouped contiguously per segment (the
    dst-sorted canonical order, or src order after permutation).  Empty
    segments keep whatever ``out`` was initialized with.
    """
    if ordered.shape[0] == 0:
        return out
    counts = np.diff(indptr)
    nonempty = counts > 0
    starts = indptr[:-1][nonempty]
    out[nonempty] = ufunc.reduceat(ordered, starts, axis=0)
    return out


class SparseAdj:
    """Edge set src->dst with CSR-by-destination math storage."""

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_src: int,
        num_dst: int,
        device=None,
        node_scale: float = 1.0,
        edge_scale: float = 1.0,
        edge_weight: Optional[np.ndarray] = None,
    ) -> None:
        src = np.asarray(src, dtype=INDEX_DTYPE)
        dst = np.asarray(dst, dtype=INDEX_DTYPE)
        if src.shape != dst.shape:
            raise GraphFormatError("src and dst must have equal length")
        if src.size and (src.max() >= num_src or src.min() < 0):
            raise GraphFormatError("src index out of range")
        if dst.size and (dst.max() >= num_dst or dst.min() < 0):
            raise GraphFormatError("dst index out of range")
        # Canonical edge order: sorted by (dst, then original position) so
        # CSR data positions line up with the stored COO arrays.
        order = stable_order(dst, num_dst)
        if edge_weight is not None:
            edge_weight = np.asarray(edge_weight, dtype=np.float32)[order]
        self._finalize(src[order], dst[order], num_src, num_dst, device,
                       node_scale, edge_scale, edge_weight)

    @classmethod
    def from_sorted_block(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_src: int,
        num_dst: int,
        device=None,
        node_scale: float = 1.0,
        edge_scale: float = 1.0,
        edge_weight: Optional[np.ndarray] = None,
    ) -> "SparseAdj":
        """Adjacency from edges already in canonical (dst-sorted) order.

        The samplers and block builders emit relabeled, range-checked,
        dst-grouped edges (see :func:`repro.sampling.relabel.block_locals`),
        so re-sorting and full bounds validation here would be pure waste.
        This constructor verifies only the load-bearing invariant — ``dst``
        non-decreasing and within range, O(E) compare instead of an O(E
        log E) argsort — and trusts ``src`` to be pre-validated.
        """
        src = np.asarray(src, dtype=INDEX_DTYPE)
        dst = np.asarray(dst, dtype=INDEX_DTYPE)
        if src.shape != dst.shape:
            raise GraphFormatError("src and dst must have equal length")
        if dst.size:
            if dst[0] < 0 or dst[-1] >= num_dst:
                raise GraphFormatError("dst index out of range")
            if np.any(np.diff(dst) < 0):
                raise GraphFormatError(
                    "from_sorted_block requires dst-sorted edges; "
                    "use SparseAdj(...) for unsorted input"
                )
        self = object.__new__(cls)
        if edge_weight is not None:
            edge_weight = np.asarray(edge_weight, dtype=np.float32)
        self._finalize(src, dst, num_src, num_dst, device,
                       node_scale, edge_scale, edge_weight)
        return self

    def _finalize(self, src, dst, num_src, num_dst, device,
                  node_scale, edge_scale, edge_weight) -> None:
        """Shared tail of both constructors; edges are canonically sorted."""
        self.src = src
        self.dst = dst
        self.num_src = int(num_src)
        self.num_dst = int(num_dst)
        self.device = device
        self.node_scale = float(node_scale)
        self.edge_scale = float(edge_scale)
        self.edge_weight = edge_weight
        # Derived structure: every slot below is filled on first read.
        self._indptr: Optional[np.ndarray] = None
        self._mat: Optional[sp.csr_matrix] = None
        self._default_data: Optional[np.ndarray] = None
        self._mat_t: Optional[sp.csr_matrix] = None
        self._default_data_t: Optional[np.ndarray] = None
        self._perm_src: Optional[np.ndarray] = None
        self._indptr_src: Optional[np.ndarray] = None
        self._in_degrees: Optional[np.ndarray] = None
        self._inv_in_degrees: Optional[np.ndarray] = None
        self._inc_dst: Optional[sp.csr_matrix] = None
        self._inc_src: Optional[sp.csr_matrix] = None
        # Weighted matmul rows shared across blocks; keys and source rows
        # are the global ids in ``src_nodes`` (models.inference._chunk_block).
        self.row_memo: Optional[RowMemo] = None

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @property
    def logical_num_edges(self) -> float:
        return self.num_edges * self.edge_scale

    @property
    def logical_num_src(self) -> float:
        return self.num_src * self.node_scale

    @property
    def logical_num_dst(self) -> float:
        return self.num_dst * self.node_scale

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer over the dst-sorted edges (treat as read-only)."""
        if self._indptr is None:
            indptr = np.zeros(self.num_dst + 1, dtype=INDEX_DTYPE)
            if self.dst.size:
                indptr[1:] = np.cumsum(np.bincount(self.dst, minlength=self.num_dst))
            self._indptr = indptr
        return self._indptr

    def _csr(self) -> sp.csr_matrix:
        """Lazily built-and-cached scipy CSR (rows = dst) of the structure."""
        if self._mat is None:
            data = self.edge_weight
            if data is None:
                data = np.ones(self.num_edges, dtype=np.float32)
            self._mat = sp.csr_matrix(
                (data, self.src, self.indptr), shape=(self.num_dst, self.num_src)
            )
            # scipy may copy/retype the arrays it was handed; keep a
            # reference to the matrix's *actual* buffer so in-place data
            # swaps restore the exact default storage.
            self._default_data = self._mat.data
        return self._mat

    @property
    def src_indptr(self) -> np.ndarray:
        """CSC-style pointer: edges grouped by src after :meth:`src_order`."""
        if self._indptr_src is None:
            indptr = np.zeros(self.num_src + 1, dtype=INDEX_DTYPE)
            if self.src.size:
                indptr[1:] = np.cumsum(np.bincount(self.src, minlength=self.num_src))
            self._indptr_src = indptr
        return self._indptr_src

    def src_order(self) -> np.ndarray:
        """Cached stable permutation sorting canonical edges by src.

        ``values[self.src_order()]`` groups per-edge rows contiguously by
        source node, aligned with :attr:`src_indptr` — the gather-backward
        direction of the segment reductions.  Treat as read-only.
        """
        if self._perm_src is None:
            self._perm_src = stable_order(self.src, self.num_src)
        return self._perm_src

    # -- segment reductions over per-edge rows -------------------------
    def _incidence(self, side: str) -> sp.csr_matrix:
        """Lazily built ``(num_side, E)`` edge-selector CSR.

        Row ``n`` holds a one at every edge id incident to node ``n``, so
        ``inc @ values`` is a segment sum over that side's buckets — a
        single C-level SpMM instead of a buffered per-edge scatter.
        Both selectors share this adjacency's cached index structure
        (``indptr`` / ``src_order``) and are built at most once.
        """
        if side == "dst":
            if self._inc_dst is None:
                self._inc_dst = sp.csr_matrix(
                    (np.ones(self.num_edges, dtype=np.float32),
                     np.arange(self.num_edges, dtype=INDEX_DTYPE),
                     self.indptr),
                    shape=(self.num_dst, self.num_edges),
                )
            return self._inc_dst
        if self._inc_src is None:
            self._inc_src = sp.csr_matrix(
                (np.ones(self.num_edges, dtype=np.float32),
                 self.src_order(), self.src_indptr),
                shape=(self.num_src, self.num_edges),
            )
        return self._inc_src

    def sum_edges(self, values: np.ndarray, side: str = "dst") -> np.ndarray:
        """Sum per-edge rows into per-node buckets on ``side``.

        One SpMM against the cached edge-incidence selector (edges are
        dst-sorted; the src side reuses the cached src-order permutation).
        Non-float inputs use ``np.add.reduceat`` over the same contiguous
        segments.  Charged cost is the caller's concern — this is raw
        numpy.
        """
        if side not in ("src", "dst"):
            raise ValueError("side must be 'src' or 'dst'")
        values = np.asarray(values)
        num = self.num_dst if side == "dst" else self.num_src
        if values.size and values.dtype in (np.float32, np.float64):
            flat = values.reshape(values.shape[0], -1)
            summed = self._incidence(side) @ flat
            return np.ascontiguousarray(summed).reshape(
                (num,) + values.shape[1:]).astype(values.dtype, copy=False)
        out = np.zeros((num,) + values.shape[1:], dtype=values.dtype)
        if side == "dst":
            return _segment_reduceat(np.add, values, self.indptr, out)
        return _segment_reduceat(np.add, values[self.src_order()],
                                 self.src_indptr, out)

    def max_edges(self, values: np.ndarray, fill: float = -np.inf) -> np.ndarray:
        """Max-reduce per-edge rows by destination; empty rows get ``fill``."""
        values = np.asarray(values)
        out = np.full((self.num_dst,) + values.shape[1:], fill, dtype=values.dtype)
        return _segment_reduceat(np.maximum, values, self.indptr, out)

    # -- CSR matmul with structure reuse -------------------------------
    def matmul_data(self, data: Optional[np.ndarray], x: np.ndarray) -> np.ndarray:
        """``out[d] = sum_e data[e] * x[src[e]]`` using the CSR structure.

        ``data`` must follow this adjacency's canonical edge order; ``None``
        means unweighted (stored weights if any, else ones).  Weighted
        calls swap ``data`` into the prebuilt structure in place instead of
        constructing a fresh ``sp.csr_matrix`` (the default data buffer is
        restored before returning).  With a :class:`RowMemo` attached,
        weighted calls read source rows from the memo's feature store by
        global id and never ``x``, and only the rows the memo lacks are
        multiplied.
        """
        mat = self._csr()
        if data is None:
            return np.asarray(mat @ x, dtype=np.float32)
        data = np.asarray(data, dtype=np.float32)
        if self.row_memo is not None:
            return self._matmul_memo(data)
        try:
            mat.data = data
            out = mat @ x
        finally:
            mat.data = self._default_data
        return np.asarray(out, dtype=np.float32)

    def _matmul_memo(self, data: np.ndarray) -> np.ndarray:
        """Weighted matmul through :attr:`row_memo`: rows the memo holds
        are copied out of it, a sub-CSR of the others (same edges, same
        order, global columns) runs against the memo's feature store, and
        the memo keeps those of high enough degree."""
        memo = self.row_memo
        keys = self.src_nodes[:self.num_dst]
        slots = memo.slot[keys]
        held = slots >= 0
        out = np.empty((self.num_dst, memo.features.shape[1]),
                       dtype=np.float32)
        out[held] = memo.rows[slots[held]]
        missing = np.flatnonzero(~held)
        cols, degrees, positions = gather_neighborhoods(
            self.indptr, self.src, missing)
        indptr = np.zeros(missing.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(degrees, out=indptr[1:])
        sub = sp.csr_matrix((data[positions], self.src_nodes[cols], indptr),
                            shape=(missing.size, memo.features.shape[0]))
        rows = sub @ memo.features
        out[missing] = rows
        keep = degrees >= memo.min_degree
        memo.store(keys[missing[keep]], rows[keep])
        _count_row_memo(self.num_edges - positions.size, positions.size)
        return out

    def _transpose(self) -> sp.csr_matrix:
        """Lazily built-and-cached CSR of the transposed structure.

        Built directly from the cached src-order permutation (no scipy
        transpose-and-convert): rows = src, indices = dst in src order,
        data = default data in src order.
        """
        if self._mat_t is None:
            perm = self.src_order()
            self._mat_t = sp.csr_matrix(
                (self._csr().data[perm], self.dst[perm], self.src_indptr),
                shape=(self.num_src, self.num_dst),
            )
            self._default_data_t = self._mat_t.data
        return self._mat_t

    def rmatmul(self, grad: np.ndarray, data: Optional[np.ndarray] = None) -> np.ndarray:
        """``out[s] = sum_e data[e] * grad[dst[e]]`` (the SpMM backward).

        Reuses the cached transpose structure for both the unweighted and
        the weighted case; weighted calls permute ``data`` into src order
        and swap it in place.
        """
        mat_t = self._transpose()
        if data is None:
            return np.asarray(mat_t @ grad, dtype=np.float32)
        data_t = np.asarray(data, dtype=np.float32)[self.src_order()]
        try:
            mat_t.data = data_t
            out = mat_t @ grad
        finally:
            mat_t.data = self._default_data_t
        return np.asarray(out, dtype=np.float32)

    # -- cached degree vectors (treat results as read-only) ------------
    def in_degrees(self) -> np.ndarray:
        if self._in_degrees is None:
            self._in_degrees = np.diff(self.indptr).astype(INDEX_DTYPE)
        return self._in_degrees

    def inv_in_degrees(self) -> np.ndarray:
        """``1 / max(in_degree, 1)`` as float32, cached on the structure."""
        if self._inv_in_degrees is None:
            degrees = np.maximum(self.in_degrees(), 1).astype(np.float32)
            self._inv_in_degrees = (1.0 / degrees).astype(np.float32)
        return self._inv_in_degrees

    def with_device(self, device) -> "SparseAdj":
        """Shallow re-placement onto another device.

        The edge arrays and whatever derived structure already exists are
        shared; anything still unbuilt is built per view on its first read.
        """
        clone = object.__new__(SparseAdj)
        clone.__dict__ = dict(self.__dict__)
        clone.device = device
        return clone

    @classmethod
    def from_graph(cls, graph, device=None, reverse: bool = False) -> "SparseAdj":
        """Full-graph adjacency in aggregate-orientation from a Graph.

        ``reverse=False`` aggregates along stored edge direction
        (src -> dst); datasets here are symmetrized so direction is moot.

        The validated, dst-sorted edge arrays are derived once per graph
        (memoised in ``graph.derived``) and shared read-only by every
        adjacency built from it; each call returns its own object with its
        own device, scales and (unbuilt) derived structure.
        """
        key = ("SparseAdj.edges", reverse)
        edges = graph.derived.get(key)
        if edges is None:
            coo = graph.adj.to_coo()
            src, dst = (coo.dst, coo.src) if reverse else (coo.src, coo.dst)
            canonical = cls(src, dst, num_src=graph.num_nodes,
                            num_dst=graph.num_nodes)
            canonical.src.setflags(write=False)
            canonical.dst.setflags(write=False)
            edges = graph.derived[key] = (canonical.src, canonical.dst)
        self = object.__new__(cls)
        self._finalize(*edges, graph.num_nodes, graph.num_nodes, device,
                       graph.node_scale, graph.edge_scale, None)
        return self

    def structure_nbytes(self) -> float:
        """Logical bytes of this structure (for transfer charging)."""
        return 8.0 * (self.logical_num_dst + 1) + 8.0 * self.logical_num_edges

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparseAdj({self.num_src}->{self.num_dst}, E={self.num_edges}, "
            f"device={getattr(self.device, 'name', None)})"
        )
