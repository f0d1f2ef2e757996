"""Shared grid runner for the end-to-end GNN figures (6-17)."""

from __future__ import annotations

from typing import Dict

from conftest import DATASETS, EPOCHS, REPRESENTATIVE_BATCHES

from repro.bench import ExperimentResult, format_series, run_training_experiment
from repro.telemetry.spans import PHASES

CONFIGS = (
    ("dglite", "cpu"),
    ("pyglite", "cpu"),
    ("dglite", "cpugpu"),
    ("pyglite", "cpugpu"),
)


def run_model_grid(model: str) -> Dict[str, Dict[str, ExperimentResult]]:
    """Run one GNN across all datasets and the four CPU/CPUGPU configs."""
    grid: Dict[str, Dict[str, ExperimentResult]] = {}
    for framework, placement in CONFIGS:
        row = {}
        for ds in DATASETS:
            row[ds] = run_training_experiment(
                framework, ds, model, placement=placement, epochs=EPOCHS,
                representative_batches=REPRESENTATIVE_BATCHES,
            )
        grid[row[DATASETS[0]].label] = row
    return grid


def breakdown_table(title: str, grid) -> str:
    """Per-config, per-dataset stacked breakdown (the Fig 6/10/14 data)."""
    lines = [title, "=" * len(title)]
    for label, row in grid.items():
        lines.append(f"\n{label}")
        header = f"  {'dataset':<15}" + "".join(f"{p:>16}" for p in PHASES) + f"{'total':>11}"
        lines.append(header)
        for ds, result in row.items():
            cells = "".join(
                f"{result.phases.get(p, 0.0):>10.2f}s {100 * result.phase_fraction(p):>3.0f}%"
                for p in PHASES
            )
            lines.append(f"  {ds:<15}{cells}{result.total_time:>10.2f}s")
    return "\n".join(lines)


def totals_table(title: str, grid) -> str:
    series = {
        label: {ds: r.total_time for ds, r in row.items()}
        for label, row in grid.items()
    }
    return format_series(title, series, unit="s", precision=2)


def power_table(title: str, grid) -> str:
    series = {
        label: {ds: r.avg_power for ds, r in row.items()}
        for label, row in grid.items()
    }
    return format_series(title, series, unit="W", precision=1)


def energy_table(title: str, grid) -> str:
    series = {
        label: {ds: r.total_energy / 1000.0 for ds, r in row.items()}
        for label, row in grid.items()
    }
    return format_series(title, series, unit="kJ", precision=2)


def assert_common_shapes(grid, model: str) -> None:
    """Observations 4 & 5 hold for every model's grid."""
    # Observation 4: sampling dominates somewhere (up to ~90%).
    max_sampling = max(
        result.phase_fraction("sampling")
        for row in grid.values()
        for result in row.values()
    )
    assert max_sampling > 0.5, f"{model}: sampling never dominates"

    # Observation 5: DGL beats PyG on CPU for the large graphs, in both
    # time and energy.
    for ds in ("reddit", "yelp", "ogbn-products"):
        dgl = grid["DGL-CPU"][ds]
        pyg = grid["PyG-CPU"][ds]
        assert dgl.total_time < pyg.total_time, (model, ds)
        assert dgl.total_energy < pyg.total_energy, (model, ds)

    # Energy tracks runtime (no clear average-power winner): for every
    # config pair the energy ratio follows the time ratio within 40%.
    for ds in DATASETS:
        dgl, pyg = grid["DGL-CPU"][ds], grid["PyG-CPU"][ds]
        time_ratio = pyg.total_time / dgl.total_time
        energy_ratio = pyg.total_energy / dgl.total_energy
        assert abs(energy_ratio - time_ratio) / time_ratio < 0.4, (model, ds)

    # CPUGPU runs include a data-movement phase; CPU runs do not.
    for label, row in grid.items():
        for ds, result in row.items():
            if "CPUGPU" in label:
                assert result.phases.get("data_movement", 0) > 0, (label, ds)
            else:
                assert result.phases.get("data_movement", 0) == 0, (label, ds)
