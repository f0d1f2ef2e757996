"""Host memory: the faults of a repeated operation, the resident memory
of a cold dataset build and of a serving window.

``repro.hostmem`` fixes glibc's mmap and trim thresholds at import, so a
freed temporary stays in the heap and the next operation reuses its
pages: running an operation a second time faults in (almost) no fresh
page.  The price is that the heap's high-water mark stays resident (it
shrinks only before a store is mapped, see ``repro.hostmem``), and that
is the process's peak memory.  So no store-sized array may pass
through the heap: the feature store and the serving window's layer-0
input live in anonymous mappings of their own (``mapped_rows``), and a
cold build's temporaries stay well below store size.  ``tracemalloc``
sees the heap (numpy reports its buffers to it) and not those mappings.
"""

import mmap
import os
import resource
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro import hostmem, serving
from repro.bench.harness import conv_out_features, measure_conv_forward
from repro.datasets import clear_cache, get_dataset
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.hostmem import mapped_rows
from repro.kernels.transfer import adj_to_device, to_device
from repro.tensor.context import cost_only
from repro.tensor.tensor import no_grad

DATASET, SCALE = "reddit", 2.0  # the perf/ serving graph: 6 400 x 602


def traced_peak(fn):
    """``(fn(), peak heap bytes above the level fn started at)``."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def conv_pass(framework, dataset, kind, device="gpu", scale=1.0):
    """One conv layer set up as ``measure_conv_forward`` sets it up (fresh
    machine, graph and features on ``device``, seed 0), returned as
    ``forward(cost=False)``: its full-graph forward under ``no_grad``,
    executed or cost-only."""
    fw = get_framework(framework)
    machine = paper_testbed()
    fgraph = fw.load(dataset, machine, scale=scale)
    target = machine.device(device)
    adj = adj_to_device(fgraph.adj, target, machine.pcie)
    x = to_device(fgraph.features, target, machine.pcie)
    width = fgraph.stats.num_features
    conv = fw.conv(kind, width, conv_out_features(kind, width), seed=0)
    conv.to(target)

    def forward(cost=False):
        with fw.activate(), no_grad(), cost_only() if cost else nullcontext():
            return conv(adj, x)
    forward.adj = adj
    return forward


def second_call_faults(kind: str, measured: bool = False) -> int:
    """Minor faults the second of two identical full-graph forwards of an
    unfused attention layer adds.  Executed, its per-edge buffers are
    freed and allocated again on every call; ``measured`` runs all of
    ``measure_conv_forward`` instead (set-up, and a cost-only forward)."""
    if measured:
        def forward():
            measure_conv_forward("pyglite", "ogbn-arxiv", kind, device="gpu",
                                 dataset_scale=0.5)
    else:
        forward = conv_pass("pyglite", "ogbn-arxiv", kind, scale=0.5)
    forward()
    before = minor_faults()
    forward()
    return minor_faults() - before


def owner(array: np.ndarray):
    """The object that owns an array's memory."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array


def test_mapped_rows_is_a_plain_writable_float32_array():
    for prefault in (False, True):
        rows = mapped_rows((5, 3), prefault=prefault)
        assert rows.shape == (5, 3) and rows.dtype == np.float32
        assert rows.flags.c_contiguous and rows.flags.writeable
        assert isinstance(owner(rows), mmap.mmap)
        rows[:] = 1.5
        assert rows.sum() == 22.5
    assert mapped_rows((0, 7)).shape == (0, 7)


def test_cold_build_keeps_the_store_off_the_heap():
    clear_cache()
    graph, peak = traced_peak(lambda: get_dataset(DATASET, SCALE))
    assert isinstance(owner(graph.features), mmap.mmap)
    # 9.0 MB of temporaries against a 14.7 MB store; the doubled src/dst
    # pair of the symmetrized edge list and the draw scratch kept alive
    # through the dedup made them 19.5 MB.
    assert peak < 0.75 * graph.features.nbytes


def test_serving_window_keeps_store_sized_inputs_off_the_heap():
    store = get_dataset(DATASET, SCALE).features
    config = serving.ServeConfig("dglite", DATASET, rate=1000.0,
                                 num_requests=24, cache_fraction=0.0,
                                 pipeline="off", seed=0,
                                 dataset_scale=SCALE)
    result, peak = traced_peak(
        lambda: serving.run_serving_experiment(config))
    assert result.completed == 24
    # 7.6 MB; a store-shaped np.empty per batch made it 21.5 MB.
    assert peak < 0.75 * store.nbytes


# Under glibc's defaults an executed repeat faults about 1 900 (gat) and
# 2 800 (gatv2) pages in again, each in a fresh process.  The cost-only
# forward builds no per-edge buffer and faults none either way.
@pytest.mark.parametrize("kind, measured", [
    ("gat", False), ("gatv2", False), ("gatv2", True)],
    ids=["gat", "gatv2", "gatv2-cost-only"])
def test_a_repeated_forward_faults_in_no_fresh_pages(kind, measured):
    assert second_call_faults(kind, measured) < 64


def test_glibc_settings_take_precedence():
    # glibc's own 128 KB trim default, set the way a user would set it.
    env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="131072",
               PYTHONPATH=os.pathsep.join(["src", "."]))
    # One process per kind: freeing one layer's per-edge buffers raises
    # glibc's dynamic mmap threshold, and the next layer's repeat then
    # reuses heap pages even without the policy.
    for kind in ("gat", "gatv2"):
        code = ("from repro.hostmem import keep_freed_pages\n"
                "from tests.test_host_memory import second_call_faults\n"
                f"print(keep_freed_pages(), second_call_faults({kind!r}))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             cwd=Path(__file__).resolve().parents[1],
                             capture_output=True, text=True, check=True).stdout
        applied, faults = out.split()
        assert applied == "False"
        assert int(faults) >= 64, kind


def test_a_libc_without_mallopt_is_left_alone(monkeypatch):
    for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                "GLIBC_TUNABLES"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(hostmem, "_LIBC", object())
    assert hostmem.keep_freed_pages() is False
    assert mapped_rows((4, 4), prefault=True).shape == (4, 4)
