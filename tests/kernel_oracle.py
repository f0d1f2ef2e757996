"""The naive formulations of the sparse primitives: the kernels' oracle.

:class:`~repro.kernels.adj.SparseAdj` reduces per-edge rows with one SpMM
against a cached edge-incidence selector (or ``reduceat``) over its
dst-sorted edges, swaps weights into a cached CSR in place, builds its
transpose from a cached src-order permutation, and trusts sampler blocks
to arrive dst-sorted.  Each function here computes the same result the
obvious way — an ``np.add.at`` / ``np.maximum.at`` scatter, a CSR rebuilt
per call, scipy's ``.T.tocsr()``, the canonicalizing constructor — and
reads nothing the adjacency derives and caches.  Both accumulate every
output row over the same edges in the same order, so results agree bit
for bit.

:class:`OracleAdj` is an adjacency whose primitives are these, so a kernel
run on it computes through the oracle and charges what the kernel charges.
:func:`oracle_kernels` puts them on every adjacency for the length of a
block, for comparisons that go through a whole serving window.
"""

from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from repro.kernels.adj import SparseAdj


def sum_edges(adj, values, side="dst"):
    """``out[n] = sum of values[e]`` over the edges incident to ``n``."""
    if side not in ("src", "dst"):
        raise ValueError("side must be 'src' or 'dst'")
    values = np.asarray(values)
    num = adj.num_dst if side == "dst" else adj.num_src
    out = np.zeros((num,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, adj.dst if side == "dst" else adj.src, values)
    return out


def max_edges(adj, values, fill=-np.inf):
    """``out[d] = max of values[e]`` over ``d``'s in-edges, else ``fill``."""
    values = np.asarray(values)
    out = np.full((adj.num_dst,) + values.shape[1:], fill, dtype=values.dtype)
    np.maximum.at(out, adj.dst, values)
    return out


def _rebuilt_csr(adj, data, cols, num_cols):
    """A fresh ``(num_dst, num_cols)`` CSR over the canonical edges."""
    if data is None:
        data = (adj.edge_weight if adj.edge_weight is not None
                else np.ones(adj.num_edges, dtype=np.float32))
    indptr = np.zeros(adj.num_dst + 1, dtype=np.int64)
    np.cumsum(np.bincount(adj.dst, minlength=adj.num_dst), out=indptr[1:])
    return sp.csr_matrix((np.asarray(data, dtype=np.float32), cols, indptr),
                         shape=(adj.num_dst, num_cols))


def matmul_data(adj, data, x):
    """``out[d] = sum_e data[e] * x[src[e]]``.  With a row memo attached,
    weighted calls read the same source rows (the memo's feature store by
    global id) and reuse none of its rows."""
    cols, source = adj.src, x
    if data is not None and adj.row_memo is not None:
        cols, source = adj.src_nodes[adj.src], adj.row_memo.features
    csr = _rebuilt_csr(adj, data, cols, source.shape[0])
    return np.asarray(csr @ source, dtype=np.float32)


def rmatmul(adj, grad, data=None):
    """``out[s] = sum_e data[e] * grad[dst[e]]`` (the SpMM backward)."""
    csr = _rebuilt_csr(adj, data, adj.src, adj.num_src)
    return np.asarray(csr.T.tocsr() @ grad, dtype=np.float32)


def from_sorted_block(cls, src, dst, num_src, num_dst, device=None,
                      node_scale=1.0, edge_scale=1.0, edge_weight=None):
    """The canonicalizing constructor, which sorts whatever it is given."""
    return cls(src, dst, num_src=num_src, num_dst=num_dst, device=device,
               node_scale=node_scale, edge_scale=edge_scale,
               edge_weight=edge_weight)


class OracleAdj(SparseAdj):
    """A :class:`SparseAdj` that computes through the oracle."""

    sum_edges = sum_edges
    max_edges = max_edges
    matmul_data = matmul_data
    rmatmul = rmatmul
    from_sorted_block = classmethod(from_sorted_block)

    @classmethod
    def of(cls, adj):
        """The oracle twin of ``adj``: its edges, order, scales and device."""
        return cls(adj.src, adj.dst, num_src=adj.num_src, num_dst=adj.num_dst,
                   device=adj.device, node_scale=adj.node_scale,
                   edge_scale=adj.edge_scale, edge_weight=adj.edge_weight)


PRIMITIVES = ("sum_edges", "max_edges", "matmul_data", "rmatmul",
              "from_sorted_block")


@contextmanager
def oracle_kernels():
    """Every :class:`SparseAdj` computes through the oracle in the block."""
    with pytest.MonkeyPatch.context() as patch:
        for name in PRIMITIVES:
            patch.setattr(SparseAdj, name, OracleAdj.__dict__[name])
        yield
