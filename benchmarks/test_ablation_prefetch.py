"""Ablation: DGL's asynchronous pre-fetching (case study, results omitted
in the paper: "performance ... can be further improved, albeit a little
bit, with this feature").  This bench supplies the omitted numbers.

``prefetch=True`` is a lane declaration on the one training schedule: two
batches in flight, with the next batch's sample -> fetch -> copy running on
a single background ``loader`` lane while the GPU trains the current one.
What it hides is therefore *loader time behind compute* — the gain is
bounded by the share of the epoch spent training, which is small wherever
sampling dominates (Observation 4), hence "a little bit".
"""

from conftest import DATASETS, EPOCHS, REPRESENTATIVE_BATCHES, emit

from repro.bench import format_series, run_training_experiment


def test_ablation_prefetch(once):
    def run():
        out = {}
        for prefetch in (False, True):
            label = "prefetch" if prefetch else "baseline"
            out[label] = {
                ds: run_training_experiment(
                    "dglite", ds, "graphsage", placement="cpugpu",
                    prefetch=prefetch, epochs=EPOCHS,
                    representative_batches=REPRESENTATIVE_BATCHES,
                )
                for ds in DATASETS
            }
        return out

    grid = once(run)

    def hidden(ds):
        return grid["baseline"][ds].total_time - grid["prefetch"][ds].total_time

    speedups = {
        "DGL prefetch speedup": {
            ds: grid["baseline"][ds].total_time / grid["prefetch"][ds].total_time
            for ds in DATASETS
        },
        "training share": {
            ds: grid["baseline"][ds].phase_fraction("training")
            for ds in DATASETS
        },
        "hidden / training": {
            ds: hidden(ds) / grid["baseline"][ds].phases["training"]
            for ds in DATASETS
        },
    }
    emit("ablation_prefetch",
         format_series("Ablation: DGL asynchronous pre-fetching (GraphSAGE)",
                       speedups, unit="x / fraction", precision=3))

    for ds in DATASETS:
        base = grid["baseline"][ds]
        pref = grid["prefetch"][ds]
        # Never slower, and causal: the loader can only hide behind the
        # training it overlaps, which itself stays fully visible.
        assert pref.total_time <= base.total_time, ds
        assert 0.0 < hidden(ds) <= base.phases["training"] * (1 + 1e-9), ds
        assert pref.phases["training"] >= base.phases["training"] * (1 - 1e-9), ds
        # Bit-identical numerics: pre-fetching reorders time, not work.
        assert pref.losses == base.losses, ds

    # "Albeit a little bit": the gain is modest — under 2.5x everywhere,
    # and somewhere under 10%.
    gains = [grid["baseline"][ds].total_time / grid["prefetch"][ds].total_time
             for ds in DATASETS]
    assert max(gains) < 2.5
    assert min(gains) < 1.10
