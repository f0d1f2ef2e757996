"""Balanced graph partitioning (the METIS substitute for ClusterGCN).

ClusterGCN's sampler needs a one-time partitioning of the input graph into
many small, balanced, low-edge-cut clusters.  The paper uses METIS; we use
a BFS-ordering partitioner with a single boundary-refinement pass, which is
the classic lightweight approximation: BFS order gives locality, chunking
gives balance, and refinement trims the cut.  Its charged cost is the
METIS-like O(E) one-time cost (see the sampler cost model).

The BFS and the chunking are whole-array passes (one gather per BFS level,
one ``np.repeat`` for the chunks); only the refinement walks nodes one at a
time, because each move changes the part sizes and the neighbour counts
the next node sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.formats import AdjacencyCSR, INDEX_DTYPE, gather_neighborhoods


@dataclass(frozen=True)
class PartitionResult:
    """Assignment of each node to one of ``num_parts`` clusters."""

    num_parts: int
    assignments: np.ndarray  # (num_nodes,) int64 part id
    edge_cut: int  # number of edges crossing parts


def bfs_order(adj: AdjacencyCSR, seed: Optional[int] = None) -> np.ndarray:
    """Visit order of a BFS over all components (random restarts).

    Level-synchronous: each level gathers the whole frontier's neighbour
    lists and keeps the first occurrence of every unvisited node, which is
    exactly the order a FIFO queue visits them in.  A restart takes the
    next unvisited node of a seeded permutation; unvisited candidates with
    no out-edges are components of their own and are emitted in one run.
    """
    rng = np.random.default_rng(seed)
    n = adj.num_nodes
    out_degree = adj.degrees()
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=INDEX_DTYPE)
    pos = 0
    candidates = rng.permutation(n)
    head, window = 0, 64
    while head < n:
        # Scan the permutation in doubling windows: linear over all restarts.
        span = candidates[head:head + window]
        fresh = np.flatnonzero(~visited[span])
        if fresh.size == 0:
            head += span.size
            window *= 2
            continue
        window = 64
        roots = span[fresh]
        with_edges = np.flatnonzero(out_degree[roots])
        k = int(with_edges[0]) if with_edges.size else roots.size
        visited[roots[:k]] = True
        order[pos:pos + k] = roots[:k]
        pos += k
        if k == roots.size:
            head += span.size
            continue
        head += int(fresh[k]) + 1
        frontier = roots[k:k + 1]
        visited[frontier] = True
        while frontier.size:
            order[pos:pos + frontier.size] = frontier
            pos += frontier.size
            nbrs, _, _ = gather_neighborhoods(adj.indptr, adj.indices, frontier)
            nbrs = nbrs[~visited[nbrs]]
            _, first = np.unique(nbrs, return_index=True)
            frontier = nbrs[np.sort(first)]
            visited[frontier] = True
    return order


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
    # Chunk sizes differ by at most 1.
    base = n // num_parts
    remainder = n % num_parts
    chunk_sizes = np.full(num_parts, base, dtype=INDEX_DTYPE)
    chunk_sizes[:remainder] += 1
    assignments = np.empty(n, dtype=INDEX_DTYPE)
    assignments[order] = np.repeat(np.arange(num_parts, dtype=INDEX_DTYPE),
                                   chunk_sizes)

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

    edge_cut = int((assignments[coo.src] != assignments[coo.dst]).sum())
    return PartitionResult(num_parts, assignments, edge_cut)
