"""Figure 21: GraphSAGE breakdown with DGL's GPU- and UVA-based samplers.

The paper: sampling share shrinks vs CPU sampling but still reaches ~40%
(DGL-GPU) / ~60% (DGL-UVAGPU) of total runtime.
"""

from conftest import DATASETS, EPOCHS, REPRESENTATIVE_BATCHES, emit

from repro.bench import run_training_experiment
from repro.telemetry.spans import PHASES


def test_fig21_gpu_sampler_breakdown(once):
    def run():
        out = {}
        for placement in ("cpugpu", "gpu", "uvagpu"):
            out[placement] = {
                ds: run_training_experiment(
                    "dglite", ds, "graphsage", placement=placement,
                    epochs=EPOCHS,
                    representative_batches=REPRESENTATIVE_BATCHES,
                )
                for ds in DATASETS
            }
        return out

    grid = once(run)

    lines = ["Figure 21: breakdown with GPU/UVA-based sampling", "=" * 50]
    for placement in ("gpu", "uvagpu"):
        label = {"gpu": "DGL-GPU", "uvagpu": "DGL-UVAGPU"}[placement]
        lines.append(f"\n{label}")
        for ds, result in grid[placement].items():
            cells = "".join(
                f"{p}={result.phases.get(p, 0.0):.2f}s({100 * result.phase_fraction(p):.0f}%) "
                for p in PHASES
            )
            lines.append(f"  {ds:<15}{cells}")
    emit("fig21_gpu_sampler_breakdown", "\n".join(lines))

    for ds in DATASETS:
        cpu_frac = grid["cpugpu"][ds].phase_fraction("sampling")
        gpu_frac = grid["gpu"][ds].phase_fraction("sampling")
        uva_frac = grid["uvagpu"][ds].phase_fraction("sampling")
        # Observation 7: the sampling share shrinks with GPU sampling...
        assert gpu_frac < cpu_frac, ds
        # ...but remains non-trivial.
        assert gpu_frac > 0.03, ds
        # UVA sampling (zero-copy reads) keeps a larger sampling share.
        assert uva_frac >= gpu_frac, ds

    # Somewhere the sampling share stays large even on GPU (paper: ~40%).
    assert max(grid["gpu"][ds].phase_fraction("sampling") for ds in DATASETS) > 0.2
    assert max(grid["uvagpu"][ds].phase_fraction("sampling") for ds in DATASETS) > 0.35

    # DGL-GPU movement is just the pre-load + initial model; DGL-UVAGPU
    # movement is only the initial model (paper text for Figure 21).
    for ds in DATASETS:
        assert (grid["uvagpu"][ds].phases.get("data_movement", 0.0)
                < grid["gpu"][ds].phases.get("data_movement", 0.0)), ds
