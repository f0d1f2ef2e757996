"""Host <-> device movement of tensors and graph structures.

This is the paper's "data movement" phase: copying mini-batch adjacency
structures, fetched node features, and initial model weights from CPU to
GPU over PCIe.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.device import Device
from repro.hardware.interconnect import Interconnect
from repro.kernels.adj import SparseAdj
from repro.tensor.tensor import Tensor


def to_device(x: Tensor, device: Optional[Device], link: Optional[Interconnect] = None,
              tag: str = "tensor") -> Tensor:
    """Copy a tensor to ``device``, charging the PCIe transfer if given.

    Direction is inferred from the endpoint kinds; host-to-host or
    device-local copies charge nothing on the link.
    """
    if x.device is device:
        return x
    if link is not None and device is not None:
        src_kind = x.device.kind if x.device is not None else "cpu"
        if src_kind == "cpu" and device.kind == "gpu":
            link.h2d(x.logical_nbytes, tag=tag)
        elif src_kind == "gpu" and device.kind == "cpu":
            link.d2h(x.logical_nbytes, tag=tag)
    moved = Tensor(
        x.data,
        device=device,
        requires_grad=x.requires_grad,
        work_scale=x.work_scale,
        _op="to_device",
    )
    return moved


def adj_to_device(adj: SparseAdj, device: Optional[Device],
                  link: Optional[Interconnect] = None, tag: str = "graph") -> SparseAdj:
    """Move an adjacency structure, charging its logical structure bytes."""
    if adj.device is device:
        return adj
    if link is not None and device is not None:
        src_kind = adj.device.kind if adj.device is not None else "cpu"
        if src_kind == "cpu" and device.kind == "gpu":
            link.h2d(adj.structure_nbytes(), tag=tag)
        elif src_kind == "gpu" and device.kind == "cpu":
            link.d2h(adj.structure_nbytes(), tag=tag)
    # Note: transient mini-batch structures are not pinned in the ledger
    # here.  The datapipe keeps up to ``depth`` batches in flight and
    # accounts their staging and landing buffers itself — see
    # repro.datapipe.staging.StagingPool.
    # Persistent residency (pre-loading the full graph) stays allocated
    # explicitly by the experiment that opts into it.
    return adj.with_device(device)


def graph_bytes(adj: SparseAdj) -> float:
    """Logical bytes of a graph structure (helper for movement accounting)."""
    return adj.structure_nbytes()
