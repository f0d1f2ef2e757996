"""Ablation: kernel fast-path layer vs. the reference schedules.

The fast paths (cached edge-incidence SpMM for segment sums, in-place CSR
data swaps, cached transpose, argsort-free block construction) exist to
keep our numpy backend from contaminating wall-clock measurements — the
paper's observations are about framework overheads, not about ours.  This
bench pins down where the fast paths matter:

* ``scatter_add``-style segment sums (every unfused PyG-like backward):
  the cached incidence SpMM must beat the ``np.add.at`` reference by a
  wide margin (>= 5x asserted) at representative block scale.
* an unfused attention layer step (gather -> softmax -> scatter), where
  segment reductions are a large share of the step;
* a sampled pyglite GraphSAGE epoch, which is dense-layer dominated — the
  fast path must simply never regress it (parity gate, not a speedup
  claim; the charged cost model is schedule-invariant by construction and
  tested in tests/test_kernels_fastpath.py).

All reference timings run the *identical* public API under
``use_reference_kernels()``, so the comparison covers exactly the code
production runs take.
"""

import time

import numpy as np

from conftest import emit

from repro.bench.harness import run_training_experiment
from repro.frameworks.nn import UnfusedGATConv
from repro.hardware import paper_testbed
from repro.kernels.adj import SparseAdj
from repro.kernels.config import use_reference_kernels
from repro.tensor.tensor import Tensor

NUM_SRC = 50_000
NUM_DST = 50_000
NUM_EDGES = 500_000
FEATURES = 32
MIN_SCATTER_SPEEDUP = 5.0
MIN_LAYER_SPEEDUP = 1.05
MAX_EPOCH_REGRESSION = 1.25


def best_of(fn, repeats=5):
    # Best-of-N wall clock: scheduler noise on shared runners only ever
    # inflates a measurement, so the minimum is the estimate.
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _scatter_micro():
    """Segment sum over a block-scale edge set, fast vs np.add.at."""
    rng = np.random.default_rng(0)
    adj = SparseAdj(rng.integers(0, NUM_SRC, NUM_EDGES),
                    rng.integers(0, NUM_DST, NUM_EDGES),
                    num_src=NUM_SRC, num_dst=NUM_DST)
    vals = rng.standard_normal((NUM_EDGES, FEATURES)).astype(np.float32)

    def run_fast():
        return adj.sum_edges(vals, side="dst")

    def run_ref():
        with use_reference_kernels():
            return adj.sum_edges(vals, side="dst")

    fast_s = best_of(run_fast)
    ref_s = best_of(run_ref)

    # Gradient-side reduction (gather backward scatters into src buckets).
    def run_fast_src():
        return adj.sum_edges(vals, side="src")

    def run_ref_src():
        with use_reference_kernels():
            return adj.sum_edges(vals, side="src")

    fast_src_s = best_of(run_fast_src)
    ref_src_s = best_of(run_ref_src)

    assert np.allclose(run_fast(), run_ref(), rtol=1e-6, atol=1e-6)
    assert np.allclose(run_fast_src(), run_ref_src(), rtol=1e-6, atol=1e-6)
    return {
        "dst_fast_ms": 1000.0 * fast_s, "dst_ref_ms": 1000.0 * ref_s,
        "dst_speedup": ref_s / fast_s,
        "src_fast_ms": 1000.0 * fast_src_s, "src_ref_ms": 1000.0 * ref_src_s,
        "src_speedup": ref_src_s / fast_src_s,
    }


def _gat_layer_step():
    """Unfused attention layer fwd+bwd: segment reductions under load."""
    machine = paper_testbed()
    rng = np.random.default_rng(1)
    num_src, num_dst, num_edges, feats = 30_000, 10_000, 200_000, 64
    adj = SparseAdj(rng.integers(0, num_src, num_edges),
                    rng.integers(0, num_dst, num_edges),
                    num_src=num_src, num_dst=num_dst, device=machine.cpu)
    layer = UnfusedGATConv(feats, feats, heads=4, seed=0)
    for param in layer.parameters():
        param.device = machine.cpu
    x_data = rng.standard_normal((num_src, feats)).astype(np.float32)

    def step():
        x = Tensor(x_data, device=machine.cpu, requires_grad=True)
        layer(adj, x).sum().backward()

    fast_s = best_of(step, repeats=3)
    with use_reference_kernels():
        ref_s = best_of(step, repeats=3)
    return {"fast_ms": 1000.0 * fast_s, "ref_ms": 1000.0 * ref_s,
            "speedup": ref_s / fast_s}


def _graphsage_epoch():
    """Sampled pyglite GraphSAGE end to end; interleaved to ride out noise."""
    def run():
        run_training_experiment(
            framework="pyglite", dataset="reddit", model="graphsage",
            epochs=1, representative_batches=4, seed=0, dataset_scale=2.0)

    run()  # warm dataset/module caches outside the timed region
    fast_times, ref_times = [], []
    for _ in range(4):
        start = time.perf_counter()
        run()
        fast_times.append(time.perf_counter() - start)
        with use_reference_kernels():
            start = time.perf_counter()
            run()
            ref_times.append(time.perf_counter() - start)
    fast_s, ref_s = min(fast_times), min(ref_times)
    return {"fast_s": fast_s, "ref_s": ref_s, "ratio": fast_s / ref_s}


def _run():
    return {"scatter": _scatter_micro(), "gat": _gat_layer_step(),
            "epoch": _graphsage_epoch()}


def test_ablation_kernel_fastpath(once):
    row = once(_run)
    sc, gat, ep = row["scatter"], row["gat"], row["epoch"]

    lines = [
        f"Ablation: kernel fast paths vs reference schedules "
        f"({NUM_EDGES:,} edges, {FEATURES} features)",
        f"  scatter_add (dst)   fast {sc['dst_fast_ms']:>8.1f} ms"
        f"   np.add.at {sc['dst_ref_ms']:>8.1f} ms"
        f"   speedup {sc['dst_speedup']:>5.1f}x",
        f"  gather bwd (src)    fast {sc['src_fast_ms']:>8.1f} ms"
        f"   np.add.at {sc['src_ref_ms']:>8.1f} ms"
        f"   speedup {sc['src_speedup']:>5.1f}x",
        f"  unfused GAT step    fast {gat['fast_ms']:>8.0f} ms"
        f"   reference {gat['ref_ms']:>8.0f} ms"
        f"   speedup {gat['speedup']:>5.1f}x",
        f"  pyglite SAGE epoch  fast {ep['fast_s']:>8.3f} s "
        f"   reference {ep['ref_s']:>8.3f} s "
        f"   ratio {ep['ratio']:>6.2f} (dense-dominated; parity gate)",
    ]
    emit("ablation_kernel_fastpath", "\n".join(lines))

    assert sc["dst_speedup"] >= MIN_SCATTER_SPEEDUP
    assert gat["speedup"] >= MIN_LAYER_SPEEDUP
    # The epoch is dominated by dense layer matmuls; the kernel layer's job
    # there is to never be the bottleneck.
    assert ep["ratio"] <= MAX_EPOCH_REGRESSION
