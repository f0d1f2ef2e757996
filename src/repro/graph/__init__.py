"""Graph data structures: adjacency formats, the Graph container, generators.

The adjacency classes are format-explicit (COO / CSR); the cost of the
CSC conversion PyG's samplers need — which "turns out to be quite slow
on large datasets" (Observation 2) — is charged by the framework
profiles (:mod:`repro.frameworks.profiles`).
"""

from repro.graph.formats import AdjacencyCOO, AdjacencyCSR
from repro.graph.graph import Graph, GraphStats, Split
from repro.graph import generators
from repro.graph.partition import partition_graph, PartitionResult

__all__ = [
    "AdjacencyCOO",
    "AdjacencyCSR",
    "Graph",
    "GraphStats",
    "PartitionResult",
    "Split",
    "generators",
    "partition_graph",
]
