"""Ablation: the composable datapipe (``pipeline=off`` vs ``depth-N``).

The serial schedule pays sampling, feature fetch, H2D copy, and training
back-to-back; the datapipe gives each resource its own lane and keeps up
to N mini-batches in flight.  This bench quantifies the epoch-time win on
the CPU-sample/GPU-train placement and pins the two contract guarantees:
the speedup is real (>= 1.3x at the largest committed logical scale) and
the numerics are bit-identical — the pipeline reorders *timelines*, never
execution.
"""

import numpy as np

from conftest import EPOCHS, REPRESENTATIVE_BATCHES, emit

from repro.bench import format_series, run_training_experiment

DATASETS = ("ppi", "flickr", "ogbn-arxiv")
#: The logical scales committed in BENCH_training.json; 0.6 is the
#: largest, where the acceptance threshold applies.
SCALES = (0.3, 0.6)
DEPTH = "depth-4"


def test_ablation_datapipe(once):
    def run():
        out = {}
        for pipeline in ("off", DEPTH):
            out[pipeline] = {
                scale: run_training_experiment(
                    "dglite", "ppi", "graphsage", placement="cpugpu",
                    pipeline=pipeline, epochs=EPOCHS,
                    representative_batches=REPRESENTATIVE_BATCHES,
                    dataset_scale=scale,
                )
                for scale in SCALES
            }
        out["datasets"] = {
            pipeline: {
                ds: run_training_experiment(
                    "dglite", ds, "graphsage", placement="cpugpu",
                    pipeline=pipeline, epochs=EPOCHS,
                    representative_batches=REPRESENTATIVE_BATCHES,
                    dataset_scale=0.3,
                )
                for ds in DATASETS
            }
            for pipeline in ("off", DEPTH)
        }
        return out

    grid = once(run)

    speedups = {
        f"{DEPTH} speedup (ppi)": {
            f"x{scale:g}": (grid["off"][scale].total_time
                            / grid[DEPTH][scale].total_time)
            for scale in SCALES
        },
        f"{DEPTH} speedup (x0.3)": {
            ds: (grid["datasets"]["off"][ds].total_time
                 / grid["datasets"][DEPTH][ds].total_time)
            for ds in DATASETS
        },
        "sampling hidden (ppi)": {
            f"x{scale:g}": 1.0 - (
                grid[DEPTH][scale].phases.get("sampling", 0.0)
                / max(1e-9, grid["off"][scale].phases["sampling"]))
            for scale in SCALES
        },
    }
    emit("ablation_datapipe",
         format_series("Ablation: datapipe streaming (GraphSAGE, cpugpu)",
                       speedups, unit="x / fraction", precision=3))

    # Acceptance: >= 1.3x at the largest committed logical scale.
    largest = max(SCALES)
    assert (grid["off"][largest].total_time
            / grid[DEPTH][largest].total_time) >= 1.3

    # Never slower anywhere; the win comes from hiding sampling + copy.
    for scale in SCALES:
        assert (grid[DEPTH][scale].total_time
                <= grid["off"][scale].total_time * 1.001), scale
    for ds in DATASETS:
        assert (grid["datasets"][DEPTH][ds].total_time
                <= grid["datasets"]["off"][ds].total_time * 1.001), ds

    # Bit-identical numerics: the pipeline may only move timestamps.
    for scale in SCALES:
        assert grid["off"][scale].losses == grid[DEPTH][scale].losses, scale
    for ds in DATASETS:
        assert (grid["datasets"]["off"][ds].losses
                == grid["datasets"][DEPTH][ds].losses), ds


def test_datapipe_parameters_bit_identical(once):
    """Trained parameters agree to <= 1e-9 between off and depth-N."""
    from repro.frameworks import get_framework
    from repro.hardware.machine import paper_testbed
    from repro.models.graphsage import build_graphsage
    from repro.models.trainer import MiniBatchTrainer, TrainConfig

    def params_for(pipeline):
        fw = get_framework("dglite")
        machine = paper_testbed()
        fgraph = fw.load("ppi", machine, scale=max(SCALES))
        sampler = fw.neighbor_sampler(fgraph, fanouts=(25, 10),
                                      batch_size=512, mode="cpu", seed=0)
        net = build_graphsage(fw, fgraph, seed=0)
        config = TrainConfig(epochs=2, placement="cpugpu",
                             representative_batches=REPRESENTATIVE_BATCHES,
                             seed=0, pipeline=pipeline)
        MiniBatchTrainer(fw, fgraph, sampler, net, config).run()
        return np.concatenate([p.data.ravel() for p in net.parameters()])

    p_off = params_for("off")
    p_deep = params_for(DEPTH)
    assert np.abs(p_off - p_deep).max() <= 1e-9
