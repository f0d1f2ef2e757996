"""Host memory of a cold dataset build and of a serving window.

A process's peak resident memory is the high-water mark of its malloc
heap: a freed array stays resident and leaves a hole that the next array
may or may not fit.  So no store-sized array may pass through the heap.
The feature store and the serving window's layer-0 input live in
anonymous mappings of their own (``mapped_rows``), and a cold build's
temporaries stay well below store size.  ``tracemalloc`` sees the heap
(numpy reports its buffers to it) and not those mappings.
"""

import mmap
import tracemalloc

import numpy as np

from repro import serving
from repro.datasets import clear_cache, get_dataset
from repro.graph.graph import mapped_rows

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
