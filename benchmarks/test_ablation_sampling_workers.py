"""Ablation: parallel sampling workers (DGL/PyG dataloader num_workers).

Observation 4 says sampling needs optimization; both real frameworks ship
worker pools for exactly that.  ``num_workers=w`` puts sampling on a pool of
``w`` lanes (each job stretched by ``w / w**0.85``) with ``w`` batches in
flight, so this bench sweeps worker counts and shows (a) the total falling
monotonically, by less than ``w``x, toward the compute+movement floor and
(b) visible sampling vanishing once the pool outruns the GPU — the fix for
the scaling wall the multi-GPU ablation exposes.  (Visible sampling is what
the train lane does not cover; once it is fully hidden its ratio to the
inline run says nothing, so the claims are on total time.)
"""

from conftest import emit

from repro.bench import format_series, run_training_experiment

WORKERS = (0, 2, 4, 8)
RUN = dict(epochs=5, representative_batches=2, placement="cpugpu")
DATASET = "reddit"


def test_ablation_sampling_workers(once):
    def run():
        out = {}
        for fw in ("dglite", "pyglite"):
            for w in WORKERS:
                out[(fw, w)] = run_training_experiment(
                    fw, DATASET, "graphsage", num_workers=w, **RUN)
        return out

    results = once(run)
    series = {
        f"{fw}/workers-{w}": {
            "sampling_s": r.phases.get("sampling", 0.0),
            "total_s": r.total_time,
            "speedup": results[(fw, 0)].total_time / r.total_time,
        }
        for (fw, w), r in results.items()
    }
    emit("ablation_sampling_workers",
         format_series(f"Ablation: sampler worker pool on {DATASET} "
                       "(GraphSAGE, CPUGPU)", series, unit="mixed",
                       precision=2))

    for fw in ("dglite", "pyglite"):
        totals = [results[(fw, w)].total_time for w in WORKERS]
        # Monotone in w, up to the pipeline-fill transient: a wider pool
        # stretches the first batch's sample job, which nothing hides.
        assert all(b <= a * 1.001 for a, b in zip(totals, totals[1:])), fw
        # Sublinear: w workers buy less than w-fold, and never less than
        # the training the sampling hides behind.
        for w, total in zip(WORKERS[1:], totals[1:]):
            assert 1.0 < totals[0] / total < w, (fw, w)
            assert total >= results[(fw, 0)].phases["training"], (fw, w)
        # Workers change the schedule, never the batches.
        assert all(results[(fw, w)].losses == results[(fw, 0)].losses
                   for w in WORKERS), fw

    # The worker pool matters most where sampling dominates: PyG gains a
    # larger total-time factor than DGL.
    pyg_gain = (results[("pyglite", 0)].total_time
                / results[("pyglite", 8)].total_time)
    dgl_gain = (results[("dglite", 0)].total_time
                / results[("dglite", 8)].total_time)
    assert pyg_gain > dgl_gain
