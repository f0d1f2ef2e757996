"""The memory ledger, pinned: what three training runs allocate and release
on every device hashes to committed literals.

A batch's input features (``FrameworkBatch.x``) are a ledger allocation,
and the training loops decide when it is made: the trainer's fetch stage,
the feature-cache movement path and data-parallel sharding.  Moving that
allocation (earlier, later, or on another device) changes the simulated
memory picture even when every clock reading stays put.  Each hash runs
over every ``alloc``/``release`` in call order as ``(device, op, label,
bytes)``, then every device's peak.

Cyclic garbage is not collected during a run, so the release order is
the reference-count order and does not depend on what ran before.

A literal moves only with a deliberate behaviour change.  Print the
current values with:

    PYTHONPATH=src python tests/test_ledger_pins.py
"""

import gc
import hashlib
from unittest import mock

import pytest

from repro.distributed import DataParallelTrainer, multi_gpu_testbed
from repro.frameworks import get_framework
from repro.frameworks.feature_cache import GpuFeatureCache
from repro.hardware.machine import paper_testbed
from repro.hardware.memory import MemoryLedger
from repro.models.graphsage import build_graphsage
from repro.models.trainer import MiniBatchTrainer, TrainConfig

#: Run name -> sha256 of its ledger sequence and peaks.
LEDGER_PINS = {
    "cache:0.25":
        "2929c9c750cfc45eab52e6445a7e759f8dd85f7c4beea29416ddf53890fa3ee9",
    "data-parallel:k=2":
        "0291c1d428a727c1941cae836e6698eca631010b8c0c9dc4ef5cc1f16f0b7304",
    "train:depth-4":
        "d6232201084add6250b25526e12950473d8238bfb053a36d21f1d591ff68d1c4",
}


def _ledger_digest(run) -> str:
    """Run ``run()`` (it returns its machine) and hash its ledgers."""
    h = hashlib.sha256()
    alloc, release = MemoryLedger.alloc, MemoryLedger.release

    def spy_alloc(ledger, nbytes, label=""):
        out = alloc(ledger, nbytes, label)
        h.update(f"{ledger.device_name} alloc {label} {out.nbytes}\n".encode())
        return out

    def spy_release(ledger, allocation):
        if allocation.handle in ledger._live:
            h.update(f"{ledger.device_name} release {allocation.label} "
                     f"{allocation.nbytes}\n".encode())
        release(ledger, allocation)

    gc.collect()
    gc.disable()
    try:
        with mock.patch.object(MemoryLedger, "alloc", spy_alloc), \
                mock.patch.object(MemoryLedger, "release", spy_release):
            machine = run()
    finally:
        gc.enable()
    for device in [machine.cpu, *getattr(machine, "gpus", [machine.gpu])]:
        h.update(f"{device.name} peak {device.memory.peak}\n".encode())
    return h.hexdigest()


def _trainer(fw, fgraph, pipeline="off", **kwargs):
    sampler = fw.neighbor_sampler(fgraph, fanouts=(4, 4), batch_size=32,
                                  mode="cpu", seed=3)
    net = build_graphsage(fw, fgraph, hidden=16, seed=3)
    config = TrainConfig(epochs=2, placement="cpugpu",
                         representative_batches=3, seed=3,
                         pipeline=pipeline, num_workers=2)
    return MiniBatchTrainer(fw, fgraph, sampler, net, config, **kwargs)


def _train_depth4():
    """Two epochs of ppi ×0.3 cpugpu GraphSAGE on the depth-4 pipe."""
    fw = get_framework("dglite")
    machine = paper_testbed()
    fgraph = fw.load("ppi", machine, scale=0.3)
    _trainer(fw, fgraph, pipeline="depth-4").run()
    return machine


def _train_cached():
    """The same run, serial, with a quarter of the features GPU-cached."""
    fw = get_framework("dglite")
    machine = paper_testbed()
    fgraph = fw.load("ppi", machine, scale=0.3)
    cache = GpuFeatureCache(fgraph, fraction=0.25, seed=3)
    _trainer(fw, fgraph, feature_cache=cache).run()
    return machine


def _data_parallel():
    """One ppi ×0.3 epoch on two GPUs, two executed steps."""
    fw = get_framework("dglite")
    machine = multi_gpu_testbed(2)
    fgraph = fw.load("ppi", machine, scale=0.3)
    sampler = fw.neighbor_sampler(fgraph, fanouts=(4, 4), batch_size=32,
                                  mode="cpu", seed=3)
    net = build_graphsage(fw, fgraph, hidden=16, seed=3)
    DataParallelTrainer(fw, fgraph, sampler, net, epochs=1,
                        representative_steps=2).run()
    return machine


RUNS = {"cache:0.25": _train_cached,
        "data-parallel:k=2": _data_parallel,
        "train:depth-4": _train_depth4}


@pytest.mark.parametrize("name", sorted(LEDGER_PINS))
def test_ledger_matches_the_pin(name):
    assert _ledger_digest(RUNS[name]) == LEDGER_PINS[name]


if __name__ == "__main__":
    for name in sorted(RUNS):
        print(f"    {name!r}:\n        {_ledger_digest(RUNS[name])!r},")
