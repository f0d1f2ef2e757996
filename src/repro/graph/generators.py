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

from repro.graph.formats import (
    AdjacencyCOO,
    INDEX_DTYPE,
    remove_self_loops,
    symmetrize,
)


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
    src = rng.choice(num_nodes, size=n_draw, p=weights).astype(INDEX_DTYPE)
    dst = np.empty(n_draw, dtype=INDEX_DTYPE)
    intra = rng.random(n_draw) < intra_prob

    # Global draws for the inter-community endpoints.
    n_inter = int((~intra).sum())
    if n_inter:
        dst[~intra] = rng.choice(num_nodes, size=n_inter, p=weights)

    # Community-restricted draws, one community at a time.
    order = np.argsort(communities, kind="stable")
    comm_sorted = communities[order]
    boundaries = np.searchsorted(comm_sorted, np.arange(num_communities + 1))
    for c in range(num_communities):
        members = order[boundaries[c]:boundaries[c + 1]]
        mask = intra & (communities[src] == c)
        count = int(mask.sum())
        if count == 0 or members.size == 0:
            if count:
                dst[mask] = rng.choice(num_nodes, size=count, p=weights)
            continue
        member_w = weights[members]
        member_w = member_w / member_w.sum()
        dst[mask] = rng.choice(members, size=count, p=member_w)

    coo = AdjacencyCOO(num_nodes, src, dst)
    coo = remove_self_loops(coo)
    coo = symmetrize(coo)
    return coo, communities


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
    features = centroids[communities] + noise * rng.standard_normal(
        (num_nodes, num_features)
    ).astype(np.float32)

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
