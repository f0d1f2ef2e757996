"""Cost-only execution is exact: what a forward pass charges reads no value.

``measure_conv_forward`` runs its layer under
``repro.tensor.context.cost_only``, where every op charges and allocates as
executing it would but returns a zero-stride placeholder.  These laws hold
that forward to the executed one bit for bit -- the clock delta, the energy
report, every charged kernel in order, every ledger allocation and release
with the in-use and peak bytes after it, and the OOM outcome -- and hold
the executed cost to be blind to the values it runs on: features and
initial weights redrawn from another seed charge the same.

Each law is shown able to fail by a planted mutation: a charge that reads
its output's values, and ops that compute on placeholders because their
shape rule is gone (caught by the heap bound on a cost-only forward).
"""

import gc
import importlib
from contextlib import ExitStack, nullcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.bench import harness
from repro.errors import AutogradError
from repro.frameworks import nn
from repro.frameworks.nn import CONVS
from repro.hardware.device import Device
from repro.hardware.machine import paper_testbed
from repro.hardware.memory import MemoryLedger
from repro.kernels.transfer import to_device
from repro.tensor import functional as F
from repro.tensor.context import cost_only, cost_only_active, placeholder
from repro.tensor.tensor import Tensor, cat, no_grad, stack
from tests.test_host_memory import conv_pass, traced_peak

PPI_CELLS = [(fw, "ppi", kind, device) for fw in ("dglite", "pyglite")
             for kind in CONVS for device in ("cpu", "gpu")]
#: PyG's unfused layers run the 48 GB GPU out of memory on reddit.
OOM_CELLS = [("pyglite", "reddit", kind, "gpu")
             for kind in ("gat", "gatv2", "cheb")]


def record(framework, dataset, kind, device, executed=False, seed=0,
           redraw_features=None):
    """Everything ``measure_conv_forward`` charges, as one comparable dict.

    ``executed`` runs the forward with its numerics on;
    ``redraw_features`` replaces the features it moves to the device by a
    N(0, 9) draw from that seed.  Cyclic garbage is not collected during
    the run, so ledger releases come in reference-count order.
    """
    kernels, ledger = [], []
    alloc, release, execute = (MemoryLedger.alloc, MemoryLedger.release,
                               Device.execute)

    def spy_alloc(book, nbytes, label=""):
        out = alloc(book, nbytes, label)
        ledger.append((book.device_name, "alloc", label, out.nbytes,
                       book.in_use, book.peak))
        return out

    def spy_release(book, allocation):
        live = allocation.handle in book._live
        release(book, allocation)
        if live:
            ledger.append((book.device_name, "release", allocation.label,
                           allocation.nbytes, book.in_use, book.peak))

    def spy_execute(dev, cost):
        kernels.append((dev.name, cost.name, float(cost.flops).hex(),
                        float(cost.bytes_moved).hex()))
        return execute(dev, cost)

    def redrawn(tensor, target, link):
        moved = to_device(tensor, target, link)
        rng = np.random.default_rng(redraw_features)
        moved.data = rng.normal(0.0, 3.0, moved.shape).astype(np.float32)
        return moved

    gc.collect()
    gc.disable()
    try:
        with ExitStack() as patches:
            patches.enter_context(
                mock.patch.object(MemoryLedger, "alloc", spy_alloc))
            patches.enter_context(
                mock.patch.object(MemoryLedger, "release", spy_release))
            patches.enter_context(
                mock.patch.object(Device, "execute", spy_execute))
            if executed:
                patches.enter_context(
                    mock.patch.object(harness, "cost_only", nullcontext))
            if redraw_features is not None:
                patches.enter_context(
                    mock.patch.object(harness, "to_device", redrawn))
            result = harness.measure_conv_forward(
                framework, dataset, kind, device=device, seed=seed)
    finally:
        gc.enable()
    return {"clock": {k: v.hex() for k, v in result.phases.items()},
            "energy": result.energy, "oom": (result.oom, result.error),
            "kernels": kernels, "ledger": ledger}


@pytest.mark.parametrize("cell", PPI_CELLS + OOM_CELLS,
                         ids=lambda cell: "-".join(cell))
def test_cost_only_charges_what_executing_charges(cell):
    cost = record(*cell)
    assert cost == record(*cell, executed=True)
    assert cost["kernels"] and cost["ledger"]
    assert cost["oom"][0] == (cell in OOM_CELLS)


@pytest.mark.parametrize("device", ["cpu", "gpu"])
@pytest.mark.parametrize("framework", ["dglite", "pyglite"])
def test_executed_charges_are_blind_to_values(framework, device):
    for kind in CONVS:
        cell = (framework, "ppi", kind, device)
        assert record(*cell, executed=True) == record(
            *cell, executed=True, seed=1, redraw_features=123), kind


#: Heap a cost-only forward may use per edge and node: the sparse
#: structure it derives (a self-looped adjacency's int64 src/dst, per-edge
#: float32 weights) and the temporaries that build it, about 31 bytes.  On
#: flickr (E/N about 11, 500 features) any buffer with a feature axis is
#: far above the bound; an (E, heads) score buffer can fit under it.
STRUCTURE_BYTES_PER_ROW = 48


def heap_within_structure(framework, kind):
    """Whether a cost-only forward's traced heap peak stays within the
    sparse structure it may derive."""
    forward = conv_pass(framework, "flickr", kind)
    _, peak = traced_peak(lambda: forward(cost=True))
    rows = forward.adj.num_edges + forward.adj.num_dst
    return peak <= STRUCTURE_BYTES_PER_ROW * rows


@pytest.mark.parametrize("framework", ["dglite", "pyglite"])
@pytest.mark.parametrize("kind", sorted(CONVS))
def test_a_cost_only_forward_computes_nothing(framework, kind):
    assert heap_within_structure(framework, kind)


def planted(name: str, anchor: str, replacement: str):
    """Module ``name``'s namespace re-executed with its one ``anchor``
    replaced."""
    module = importlib.import_module(name)
    path = Path(module.__file__)
    source = path.read_text(encoding="utf-8")
    assert source.count(anchor) == 1, anchor
    namespace = dict(vars(module))
    exec(compile(source.replace(anchor, replacement), str(path), "exec"),
         namespace)
    return namespace


def test_a_charge_that_reads_values_breaks_the_law(monkeypatch):
    mutated = planted("repro.kernels.spmm", "    flops = 2.0 * e_log * feat_width\n",
                      "    flops = 2.0 * e_log * feat_width"
                      " * bool(out_data.any())\n")
    monkeypatch.setattr(nn, "spmm", mutated["spmm"])
    cell = ("dglite", "ppi", "gcn", "gpu")
    assert record(*cell)["kernels"] != record(*cell, executed=True)["kernels"]


@pytest.mark.parametrize("framework, kind", [
    ("dglite", "gcn"), ("dglite", "sage"), ("pyglite", "gat"),
    ("pyglite", "gin")])
def test_ops_without_their_shape_rule_break_the_heap_bound(
        framework, kind, monkeypatch):
    """spmm, the fused lowering's aggregation, and gather, the unfused
    one's, each computing on placeholders."""
    monkeypatch.setattr(nn, "spmm", planted(
        "repro.kernels.spmm", "    if cost_only_active():\n", "    if False:\n")["spmm"])
    monkeypatch.setattr(nn, "gather", planted(
        "repro.kernels.scatter", "        placeholder(index.shape + x.shape[1:]) "
        "if cost_only_active()\n        else ",
        "        ")["gather"])
    assert not heap_within_structure(framework, kind)


#: Every charged tensor op, each shape rule's cases included.
OPS = {
    "add-broadcast": lambda a, w: a + a[0],
    "sub": lambda a, w: a - 1.0,
    "mul": lambda a, w: a * a,
    "div": lambda a, w: 1.0 / (a + 1.0),
    "pow": lambda a, w: a ** 2,
    "matmul": lambda a, w: a @ w,
    "matvec": lambda a, w: a @ w[:, 0],
    "vecmat": lambda a, w: a[0] @ w,
    "batched-matmul": lambda a, w: a.reshape(2, 3, 4) @ w,
    "index_select": lambda a, w: a[np.array([[0, 5], [2, 2]])],
    "sum": lambda a, w: a.sum(),
    "sum-axis": lambda a, w: a.sum(axis=1),
    "sum-keepdims": lambda a, w: a.sum(axis=-1, keepdims=True),
    "mean": lambda a, w: a.mean(axis=0),
    "max": lambda a, w: a.max(axis=0),
    "max-keepdims": lambda a, w: a.max(keepdims=True),
    "exp": lambda a, w: a.exp(),
    "log": lambda a, w: (a * a + 1.0).log(),
    "cat": lambda a, w: cat([a, a * 2.0], axis=1),
    "stack": lambda a, w: stack([a, a], axis=0),
    "relu": lambda a, w: F.relu(a),
    "leaky_relu": lambda a, w: F.leaky_relu(a, 0.1),
    "leaky_relu-steep": lambda a, w: F.leaky_relu(a, 3.0),
    "dropout": lambda a, w: F.dropout(a, 0.5, rng=np.random.default_rng(0)),
    "cross_entropy": lambda a, w: F.cross_entropy(a, np.arange(6) % 4),
    "bce": lambda a, w: F.binary_cross_entropy_with_logits(
        a, np.ones((6, 4))),
}


def run_op(op, cost: bool):
    machine = paper_testbed()
    rng = np.random.default_rng(7)
    a, w = (Tensor(rng.normal(size=shape).astype(np.float32),
                   device=machine.cpu) for shape in ((6, 4), (4, 5)))
    with no_grad(), cost_only() if cost else nullcontext():
        out = OPS[op](a, w)
    return (out.shape, out.data.nbytes, machine.clock.now.hex(),
            machine.cpu.memory.peak, machine.cpu.memory.in_use)


@pytest.mark.parametrize("op", sorted(OPS))
def test_each_op_charges_cost_only_what_it_charges_executed(op):
    assert run_op(op, cost=True) == run_op(op, cost=False)


def test_cost_only_is_forward_only():
    with pytest.raises(AutogradError, match="no_grad"):
        with cost_only():
            pass
    assert not cost_only_active()
    with no_grad(), cost_only():
        assert cost_only_active()
        out = Tensor(np.ones((3, 4), np.float32)) @ Tensor(np.ones((4, 2)))
    assert not cost_only_active()
    assert out.shape == (3, 2) and out.data.strides == (0, 0)
    with pytest.raises(ValueError, match="read-only"):
        out.data[0, 0] = 1.0


@pytest.mark.parametrize("shape", [(), (5,), (4, 3), (2, 3, 4)])
def test_placeholder_has_the_executed_nbytes(shape):
    held = placeholder(shape)
    assert held.shape == shape and held.dtype == np.float32
    assert held.nbytes == np.zeros(shape, np.float32).nbytes
    assert not held.flags.writeable
