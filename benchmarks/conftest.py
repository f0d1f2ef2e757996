"""Shared benchmark configuration.

Every module regenerates one table/figure of the paper: it runs the
experiment grid on the simulated machine, prints the figure-shaped table,
writes it to ``benchmarks/results/<name>.txt``, and asserts the paper's
qualitative observations on the produced numbers.

Conventions:

* ``DATASETS`` is Table 1 order (small -> large).
* Training figures use the paper's hyperparameters (10 epochs, fanouts
  25/10 batch 512, 2000/50 clusters, 3000x2 walks); each epoch executes
  ``REPRESENTATIVE_BATCHES`` batches for real and extrapolates the rest on
  the virtual clock.
* All reported times/energies are *simulated* (paper-testbed model), so
  shapes — orderings, ratios, crossovers — are the comparison target, not
  absolute values.
"""

from __future__ import annotations

from pathlib import Path

import pytest

DATASETS = ("ppi", "flickr", "ogbn-arxiv", "reddit", "yelp", "ogbn-products")
FRAMEWORKS = ("dglite", "pyglite")
EPOCHS = 10
REPRESENTATIVE_BATCHES = 2

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/.

    The write is atomic (temp file + ``os.replace``): an interrupted bench
    run must never leave a truncated ``results/*.txt`` that a later
    ``repro report`` would aggregate as if it were complete.
    """
    from repro.artifacts import atomic_write

    atomic_write(RESULTS_DIR / f"{name}.txt", text + "\n")
    print("\n" + text)


@pytest.fixture
def once(benchmark):
    """Run a grid exactly once under pytest-benchmark timing."""

    def run(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return run
