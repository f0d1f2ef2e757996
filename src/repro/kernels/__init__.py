"""Cost-accounted sparse kernels shared by both framework implementations.

These are the computational primitives the paper's kernel-level analysis
talks about:

* :func:`spmm` — fused (generalized) sparse-dense matmul, DGL's
  ``g.update_all()`` path and PyG's ``matmul()`` on a SparseTensor.
* :func:`gather` / :func:`scatter_add` — PyG's unfused gather-and-scatter
  ``MessagePassing`` path; the gather materializes an ``E x F`` message
  buffer (the source of PyG's OOMs on large graphs).
* :func:`sddmm_u_add_v` / :func:`segment_softmax` — per-edge attention
  primitives (GAT/GATv2), DGL's g-SDDMM path.

Every kernel runs real numpy/scipy math (or, under
:func:`repro.tensor.context.cost_only`, returns a shape-only placeholder)
and charges logical-scale roofline cost to the tensor's device under the
active framework profile; see ``docs/kernels.md``.
"""

from repro.kernels.adj import SparseAdj
from repro.kernels.spmm import spmm
from repro.kernels.scatter import gather, scatter_add
from repro.kernels.sddmm import (
    fused_gatv2_scores,
    sddmm_u_add_v,
    segment_softmax,
)
from repro.kernels.transfer import to_device

__all__ = [
    "SparseAdj",
    "fused_gatv2_scores",
    "gather",
    "scatter_add",
    "sddmm_u_add_v",
    "segment_softmax",
    "spmm",
    "to_device",
]
