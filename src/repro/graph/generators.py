"""Synthetic graph generators used by the dataset builders.

Real-world graphs in the paper (social, citation, co-purchase, PPI) share
two structural traits that matter for sampler and kernel performance:
heavy-tailed degree distributions and community structure.  The generator
here is a degree-corrected stochastic block model: node degrees follow a
truncated power law, endpoints prefer their own community, and the final
edge set is symmetrized and deduplicated.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.formats import (AdjacencyCOO, INDEX_DTYPE, remove_self_loops,
                                 stable_order, symmetrize)
from repro.hostmem import mapped_rows


def power_law_degrees(
    num_nodes: int,
    target_edges: int,
    exponent: float = 2.1,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sample a degree sequence with a truncated power-law tail.

    The sequence is rescaled so it sums to roughly ``target_edges`` stubs.
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    rng = rng if rng is not None else np.random.default_rng(0)
    raw = rng.pareto(exponent - 1.0, size=num_nodes) + 1.0
    raw = np.minimum(raw, num_nodes ** 0.8)  # clip extreme hubs
    degrees = raw / raw.sum() * target_edges
    return np.maximum(1, np.round(degrees)).astype(INDEX_DTYPE)


def weighted_choice(rng: np.random.Generator, a, size: int,
                    p: np.ndarray) -> np.ndarray:
    """Exactly ``rng.choice(a, size=size, p=p)``, leaving ``rng`` in the
    same state, without a binary search per draw.

    The same checks on ``p``, the same ``cdf`` and the same one
    ``rng.random(size)`` call; only the lookup of each draw ``u`` (the
    count of ``cdf`` entries ``<= u``) changes.  With ``k >= 4 n`` buckets,
    a power of two, ``cdf * k`` and ``u * k`` are exact, so the
    ``lo[b]`` entries with ``ceil(cdf k) <= b = floor(u k)`` are all
    ``<= u``: the answer is ``lo[b]`` plus the few entries of bucket
    ``b + 1`` that are ``<= u``.  Two vectorised steps count almost all of
    those; a binary search finishes what is left (runs of equal ``cdf``
    values in one bucket).  ``cdf[-1]`` is exactly 1, above every ``u``,
    so a step never runs past the end.
    """
    a = np.asarray(a)
    pop_size = int(a) if a.ndim == 0 else a.shape[0]
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("p must be 1-dimensional")
    if p.size != pop_size:
        raise ValueError("a and p must have same size")
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    u = rng.random(size)

    k = 4 << (pop_size - 1).bit_length()
    lo = np.bincount(np.ceil(cdf * k).astype(INDEX_DTYPE), minlength=k + 1)
    idx = lo.cumsum(out=lo)[(u * k).astype(INDEX_DTYPE)]
    for _ in range(2):
        idx += cdf.take(idx, mode="clip") <= u
    rest = np.flatnonzero(cdf.take(idx, mode="clip") <= u)
    idx[rest] = cdf.searchsorted(u[rest], side="right")
    return idx if a.ndim == 0 else a.take(idx)


def _stable_groups(labels: np.ndarray,
                   num_groups: int) -> Tuple[np.ndarray, np.ndarray]:
    """Positions grouped by label, ``(order, bounds)``: the positions with
    label ``g`` are ``order[bounds[g]:bounds[g + 1]]``, ascending."""
    order = stable_order(labels, num_groups)
    bounds = np.zeros(num_groups + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(labels, minlength=num_groups), out=bounds[1:])
    return order, bounds


def dcsbm_graph(
    num_nodes: int,
    num_edges: int,
    num_communities: int = 20,
    intra_prob: float = 0.8,
    exponent: float = 2.1,
    seed: Optional[int] = None,
) -> Tuple[AdjacencyCOO, np.ndarray]:
    """Degree-corrected SBM with power-law degrees.

    Returns an undirected (symmetrized, deduplicated, loop-free) edge list
    and the community assignment per node.  The realized edge count lands
    near ``num_edges`` (dedup removes a few percent).
    """
    if num_communities < 1:
        raise ValueError("num_communities must be >= 1")
    rng = np.random.default_rng(seed)
    communities = rng.integers(0, num_communities, size=num_nodes).astype(INDEX_DTYPE)
    degrees = power_law_degrees(num_nodes, num_edges, exponent=exponent, rng=rng)
    weights = degrees.astype(np.float64)
    weights /= weights.sum()

    # Draw directed stubs: sources by degree weight; destinations by degree
    # weight within the source's community with prob intra_prob, else global.
    n_draw = num_edges
    src = weighted_choice(rng, num_nodes, n_draw, weights)
    dst = np.empty(n_draw, dtype=INDEX_DTYPE)
    intra = rng.random(n_draw) < intra_prob

    # Global draws for the inter-community endpoints.
    n_inter = int((~intra).sum())
    if n_inter:
        dst[~intra] = weighted_choice(rng, num_nodes, n_inter, weights)

    # Community-restricted draws, one community at a time.  A stable sort
    # groups the intra slots by their source's community once; within a
    # group the slots stay in ascending position, the order the draws fill.
    members, member_bounds = _stable_groups(communities, num_communities)
    slots = np.flatnonzero(intra)
    by_comm, slot_bounds = _stable_groups(communities[src[slots]], num_communities)
    slots = slots[by_comm]
    for c in range(num_communities):
        own = slots[slot_bounds[c]:slot_bounds[c + 1]]
        if own.size == 0:
            continue
        group = members[member_bounds[c]:member_bounds[c + 1]]
        member_w = weights[group]
        dst[own] = weighted_choice(rng, group, own.size,
                                   member_w / member_w.sum())

    del intra, slots, by_comm  # scratch: free it before the dedup's keys
    coo = remove_self_loops(AdjacencyCOO(num_nodes, src, dst))
    del src, dst
    return symmetrize(coo), communities


def correlated_features(
    communities: np.ndarray,
    num_features: int,
    num_classes: int,
    multilabel: bool = False,
    labels_per_node: float = 2.0,
    noise: float = 1.0,
    seed: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Node features and labels correlated with community membership.

    Each community gets a class-mixture and a feature centroid; node
    features are centroid + Gaussian noise, so a GNN can actually learn
    from these graphs (training-loss tests rely on this signal).
    """
    rng = np.random.default_rng(seed)
    communities = np.asarray(communities)
    num_nodes = communities.size
    num_communities = int(communities.max()) + 1 if num_nodes else 0

    centroids = rng.standard_normal((num_communities, num_features)).astype(np.float32)
    # mode="clip" writes straight into the store ("raise" stages a copy).
    features = mapped_rows((num_nodes, num_features), prefault=True)
    np.take(centroids, communities, axis=0, out=features, mode="clip")
    # Noise in row blocks of about 65 thousand draws: the same stream as one
    # (num_nodes, num_features) draw, without its float64 temporary, which
    # set the peak memory of a cold dataset build (at a million draws per
    # block, still an 8 MB one).
    rows = max(1, (1 << 16) // max(1, num_features))
    for start in range(0, num_nodes, rows):
        draws = rng.standard_normal((min(rows, num_nodes - start), num_features))
        features[start:start + rows] += noise * draws.astype(np.float32)

    community_class = rng.integers(0, num_classes, size=num_communities)
    if multilabel:
        labels = np.zeros((num_nodes, num_classes), dtype=np.float32)
        primary = community_class[communities]
        labels[np.arange(num_nodes), primary] = 1.0
        extra_prob = min(0.9, max(0.0, labels_per_node - 1.0) / max(1, num_classes))
        extra = rng.random((num_nodes, num_classes)) < extra_prob
        labels = np.maximum(labels, extra.astype(np.float32))
    else:
        labels = community_class[communities].astype(INDEX_DTYPE)
        flip = rng.random(num_nodes) < 0.1
        labels[flip] = rng.integers(0, num_classes, size=int(flip.sum()))
    return features, labels


def split_masks(
    num_nodes: int,
    train: float,
    val: float,
    test: float,
    seed: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random fixed split masks matching the paper's Train/Val/Test column."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_nodes)
    n_train = int(round(train * num_nodes))
    n_val = int(round(val * num_nodes))
    train_mask = np.zeros(num_nodes, dtype=bool)
    val_mask = np.zeros(num_nodes, dtype=bool)
    test_mask = np.zeros(num_nodes, dtype=bool)
    train_mask[order[:n_train]] = True
    val_mask[order[n_train:n_train + n_val]] = True
    test_mask[order[n_train + n_val:]] = True
    return train_mask, val_mask, test_mask
