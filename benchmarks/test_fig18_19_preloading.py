"""Figures 18-19: GraphSAGE with the graph + features pre-loaded to GPU.

Figure 18 reports the speedup of DGL/PyG-CPUGPU+preload over plain CPUGPU;
Figure 19 the runtime breakdown with pre-loading.  The paper: pre-loading
saves up to ~20x data-movement time, giving ~2x overall speedup.
"""

from conftest import DATASETS, EPOCHS, FRAMEWORKS, REPRESENTATIVE_BATCHES, emit

from repro.bench import format_series, run_training_experiment
from repro.telemetry.spans import PHASES


def test_fig18_19_preloading(once):
    def run():
        out = {}
        for fw in FRAMEWORKS:
            for preload in (False, True):
                row = {}
                for ds in DATASETS:
                    row[ds] = run_training_experiment(
                        fw, ds, "graphsage", placement="cpugpu",
                        preload=preload, epochs=EPOCHS,
                        representative_batches=REPRESENTATIVE_BATCHES,
                    )
                out[row[DATASETS[0]].label] = row
        return out

    grid = once(run)

    speedups = {}
    movement_savings = {}
    for fw, nick in (("dglite", "DGL"), ("pyglite", "PyG")):
        base_row = grid[f"{nick}-CPUGPU"]
        pre_row = grid[f"{nick}-CPUGPU+preload"]
        speedups[nick] = {
            ds: base_row[ds].total_time / pre_row[ds].total_time for ds in DATASETS
        }
        movement_savings[nick] = {
            ds: (base_row[ds].phases["data_movement"]
                 / max(1e-9, pre_row[ds].phases["data_movement"]))
            for ds in DATASETS
        }

    emit("fig18_preload_speedup",
         format_series("Figure 18: overall speedup from pre-loading",
                       speedups, unit="x", precision=2))
    emit("fig18b_preload_movement_saving",
         format_series("Figure 18 (aux): data-movement time saving",
                       movement_savings, unit="x", precision=1))

    lines = ["Figure 19: GraphSAGE breakdown with pre-loading", "=" * 48]
    for label in ("DGL-CPUGPU+preload", "PyG-CPUGPU+preload"):
        lines.append(f"\n{label}")
        for ds, result in grid[label].items():
            cells = "".join(
                f"{p}={result.phases.get(p, 0.0):.2f}s({100 * result.phase_fraction(p):.0f}%) "
                for p in PHASES
            )
            lines.append(f"  {ds:<15}{cells}")
    emit("fig19_preload_breakdown", "\n".join(lines))

    # Observation 6: pre-loading significantly reduces data movement in
    # BOTH frameworks and speeds up training overall.  The overall gain is
    # big for DGL (movement was a large share of its runtime) and small
    # for PyG (whose total is dominated by Python sampling).
    for nick in ("DGL", "PyG"):
        assert max(movement_savings[nick].values()) > 10
        for ds in ("reddit", "yelp"):
            assert speedups[nick][ds] > 1.0, (nick, ds)
    assert max(speedups["DGL"].values()) > 1.4
    assert max(speedups["PyG"].values()) > 1.02
