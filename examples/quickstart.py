"""Quickstart: load a dataset, train GraphSAGE, read the paper-style report.

This walks the same path as the paper's core experiment (Figures 6-9):
build the simulated testbed, load a dataset into a framework, train a
2-layer GraphSAGE with neighborhood sampling, and print the four-phase
runtime breakdown plus power/energy — all on the virtual clock.

Run:  python examples/quickstart.py
"""

from repro.bench import run_training_experiment
from repro.telemetry.spans import PHASES


def main() -> None:
    print("Training GraphSAGE on PPI with both frameworks (10 epochs)...\n")

    results = []
    for framework in ("dglite", "pyglite"):
        for placement in ("cpu", "cpugpu"):
            result = run_training_experiment(
                framework=framework,
                dataset="ppi",
                model="graphsage",
                placement=placement,
                epochs=10,
                representative_batches=3,
            )
            results.append(result)

    header = (f"{'config':<14}{'total':>9}" +
              "".join(f"{p:>15}" for p in PHASES) +
              f"{'power':>9}{'energy':>10}")
    print(header)
    print("-" * len(header))
    for r in results:
        phases = "".join(
            f"{r.phases.get(p, 0.0):>9.2f}s {100 * r.phase_fraction(p):>3.0f}%"
            for p in PHASES
        )
        print(f"{r.label:<14}{r.total_time:>8.2f}s{phases}"
              f"{r.avg_power:>8.1f}W{r.total_energy:>9.1f}J")

    print("\nTraining losses (first -> last executed batch):")
    for r in results:
        print(f"  {r.label:<14}{r.losses[0]:.4f} -> {r.losses[-1]:.4f}")

    print("\nNotes:")
    print("  * All times/energies are simulated for the paper's testbed")
    print("    (dual Xeon 4114 + Quadro RTX 8000), not this machine.")
    print("  * 'sampling' dominating the breakdown is the paper's")
    print("    Observation 4; DGL beating PyG is Observation 5.")


if __name__ == "__main__":
    main()
