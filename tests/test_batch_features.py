"""A batch's input features are gathered on first read (``FrameworkBatch.x``).

The law, for every sampler wrapper and mode:

- the lazily read ``x`` is the eager gather ``Tensor(features_on(device)
  .data[input_nodes], device=device, work_scale=...)``: same bytes, dtype,
  shape, device, work scale and ledger allocation;
- it is gathered once, and an assignment replaces it;
- an ``epoch()`` that never reads ``x`` copies no feature rows and
  allocates nothing on the feature device.
"""

import itertools
from unittest import mock

import numpy as np
import pytest

from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.tensor.tensor import Tensor

CASES = ("neighbor:cpu", "neighbor:gpu", "neighbor:uva", "cluster",
         "saint_rw", "saint_node", "saint_edge", "fastgcn", "ladies")


class _CountingRows(np.ndarray):
    """A feature matrix that counts the row gathers made out of it."""

    def __getitem__(self, key):
        self.gathers += 1
        return np.asarray(self)[key]


def _sampler(case):
    kind, _, mode = case.partition(":")
    fw = get_framework("dglite")
    fgraph = fw.load("ppi", paper_testbed(), scale=0.3)
    if kind == "neighbor":
        if mode == "gpu":
            fgraph.preload_to_gpu()
        return fw.neighbor_sampler(fgraph, fanouts=(4, 4), batch_size=32,
                                   mode=mode, seed=1)
    if kind == "cluster":
        return fw.cluster_sampler(fgraph, num_parts=40, parts_per_batch=4,
                                  seed=1)
    if kind == "saint_rw":
        return fw.saint_sampler(fgraph, seed=1)
    return fw.extension_sampler(fgraph, kind, seed=1)


def _feature_device(case, machine):
    return machine.gpu if case in ("neighbor:gpu", "neighbor:uva") else machine.cpu


def _first(sampler):
    """The structure sample of an epoch's first batch."""
    return sampler.sample_structure(next(iter(sampler.epoch_requests())))


def _work_scale(sample):
    blocks = getattr(sample, "blocks", None)
    return max(1.0, blocks[0].edge_scale) if blocks else sample.node_scale


def _count_gathers(fgraph):
    """Make every feature store of ``fgraph`` count its row gathers."""
    stores = [fgraph.features, fgraph._gpu_features]
    for store in filter(None, stores):
        store.data = store.data.view(_CountingRows)
        store.data.gathers = 0
    return lambda: sum(s.data.gathers for s in filter(None, stores))


@pytest.mark.parametrize("case", CASES)
def test_lazy_x_is_the_eager_gather(case):
    sampler = _sampler(case)
    device = _feature_device(case, sampler.machine)
    sample = _first(sampler)
    before = device.memory.in_use
    batch = sampler.assemble_features(sample)
    x = batch.x
    grown = device.memory.in_use - before
    store = sampler.fgraph.features_on(device)
    eager = Tensor(store.data[batch.input_nodes], device=device,
                   work_scale=_work_scale(sample))
    assert x.data.tobytes() == eager.data.tobytes()
    assert x.data.dtype == eager.data.dtype == np.float32
    assert x.shape == eager.shape == (batch.input_nodes.size,
                                      store.shape[1])
    assert x.device is eager.device is device
    assert x.work_scale == eager.work_scale
    assert (x._alloc.nbytes, x._alloc.label) == (eager._alloc.nbytes,
                                                 eager._alloc.label)
    assert grown == x._alloc.nbytes > 0


@pytest.mark.parametrize("case", CASES)
def test_x_is_gathered_once_and_an_assignment_replaces_it(case):
    sampler = _sampler(case)
    gathers = _count_gathers(sampler.fgraph)
    batch = sampler.assemble_features(_first(sampler))
    x = batch.x
    assert batch.x is x
    assert gathers() == 1
    replacement = Tensor(np.zeros((1, 1), dtype=np.float32))
    batch.x = replacement
    assert batch.x is replacement


@pytest.mark.parametrize("case", CASES)
def test_an_epoch_that_never_reads_x_copies_no_rows(case):
    sampler = _sampler(case)
    device = _feature_device(case, sampler.machine)
    gathers = _count_gathers(sampler.fgraph)
    in_use, peak = device.memory.in_use, device.memory.peak
    with mock.patch.object(device.memory, "alloc",
                           wraps=device.memory.alloc) as alloc:
        batches = list(itertools.islice(sampler.epoch(), 3))
        assert batches
        assert gathers() == 0
        assert alloc.call_count == 0
        assert (device.memory.in_use, device.memory.peak) == (in_use, peak)
        batches[1].x = Tensor(np.zeros((1, 1), dtype=np.float32))
        assert gathers() == 0  # an assigned x is never gathered
        _ = batches[0].x  # a first read gathers that batch's rows only
        assert gathers() == 1
        assert alloc.call_count == 1
