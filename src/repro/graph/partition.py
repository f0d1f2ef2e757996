"""Balanced graph partitioning (the METIS substitute for ClusterGCN).

ClusterGCN's sampler needs a one-time partitioning of the input graph into
many small, balanced, low-edge-cut clusters.  The paper uses METIS; we use
a BFS-ordering partitioner with a single boundary-refinement pass, which is
the classic lightweight approximation: BFS order gives locality, chunking
gives balance, and refinement trims the cut.  Its charged cost is the
METIS-like O(E) one-time cost (see the sampler cost model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graph.formats import AdjacencyCSR, INDEX_DTYPE


@dataclass(frozen=True)
class PartitionResult:
    """Assignment of each node to one of ``num_parts`` clusters."""

    num_parts: int
    assignments: np.ndarray  # (num_nodes,) int64 part id
    edge_cut: int  # number of edges crossing parts


def bfs_order(adj: AdjacencyCSR, seed: Optional[int] = None) -> np.ndarray:
    """Visit order of a BFS over all components (random restarts)."""
    rng = np.random.default_rng(seed)
    n = adj.num_nodes
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=INDEX_DTYPE)
    pos = 0
    start_candidates = rng.permutation(n)
    head = 0
    queue: List[int] = []
    while pos < n:
        if not queue:
            while head < n and visited[start_candidates[head]]:
                head += 1
            if head >= n:
                break
            root = int(start_candidates[head])
            visited[root] = True
            queue.append(root)
        node = queue.pop(0)
        order[pos] = node
        pos += 1
        for nbr in adj.neighbors(node):
            nbr = int(nbr)
            if not visited[nbr]:
                visited[nbr] = True
                queue.append(nbr)
    return order[:pos]


def _edge_cut(adj: AdjacencyCSR, assignments: np.ndarray) -> int:
    coo = adj.to_coo()
    return int((assignments[coo.src] != assignments[coo.dst]).sum())


def partition_graph(
    adj: AdjacencyCSR,
    num_parts: int,
    seed: Optional[int] = None,
    refine_passes: int = 1,
) -> PartitionResult:
    """Partition into ``num_parts`` balanced clusters, low edge cut.

    1. Order nodes by BFS (locality-preserving).
    2. Chunk the order into equal-size parts (balance).
    3. Refinement: move boundary nodes to their majority-neighbor part if
       the target part is not already oversubscribed.
    """
    if num_parts < 1:
        raise ValueError("num_parts must be >= 1")
    n = adj.num_nodes
    if num_parts > n:
        raise ValueError(f"cannot split {n} nodes into {num_parts} parts")

    order = bfs_order(adj, seed=seed)
    assignments = np.empty(n, dtype=INDEX_DTYPE)
    # Chunk sizes differ by at most 1.
    base = n // num_parts
    remainder = n % num_parts
    start = 0
    for part in range(num_parts):
        size = base + (1 if part < remainder else 0)
        assignments[order[start:start + size]] = part
        start += size

    max_size = base + 1 + max(1, base // 10)  # allow ~10% imbalance in refinement
    coo = adj.to_coo()
    for _ in range(max(0, refine_passes)):
        sizes = np.bincount(assignments, minlength=num_parts)
        boundary = np.nonzero(assignments[coo.src] != assignments[coo.dst])[0]
        moved = 0
        for node in np.unique(coo.src[boundary]):
            nbrs = adj.neighbors(int(node))
            if nbrs.size == 0:
                continue
            counts = np.bincount(assignments[nbrs], minlength=num_parts)
            target = int(counts.argmax())
            current = int(assignments[node])
            if target == current:
                continue
            if (counts[target] > counts[current] and sizes[target] < max_size
                    and sizes[current] > 1):  # never empty a part
                assignments[node] = target
                sizes[target] += 1
                sizes[current] -= 1
                moved += 1
        if moved == 0:
            break

    return PartitionResult(num_parts, assignments, _edge_cut(adj, assignments))
