"""repro — reproduction of "Characterizing the Efficiency of Graph Neural
Network Frameworks with a Magnifying Glass" (IISWC 2022).

Public API tour:

>>> from repro import get_framework, paper_testbed
>>> fw = get_framework("dglite")
>>> machine = paper_testbed()
>>> fgraph = fw.load("ppi", machine)            # Figure 3 workload
>>> sampler = fw.neighbor_sampler(fgraph)       # Figure 4 workload
>>> conv = fw.conv("gcn", 50, 256)              # Figure 5 workload

End-to-end experiments (Figures 6-24) live in :mod:`repro.bench`:

>>> from repro.bench import run_training_experiment
>>> result = run_training_experiment("dglite", "ppi", "graphsage",
...                                  placement="cpu", epochs=2)
>>> result.phase_fraction("sampling")  # doctest: +SKIP
"""

from repro.frameworks import get_framework
from repro.hardware.machine import Machine, paper_testbed
from repro.datasets import get_dataset, list_datasets
from repro.power import EnergyMonitor
from repro.metrics import gps_up
from repro.hostmem import keep_freed_pages

# Once per process, before any workload frees its first temporary.
keep_freed_pages()

__version__ = "1.0.0"

__all__ = [
    "EnergyMonitor",
    "Machine",
    "__version__",
    "get_dataset",
    "get_framework",
    "gps_up",
    "list_datasets",
    "paper_testbed",
]
