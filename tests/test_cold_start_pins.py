"""The cold start's bytes, pinned: every Table-1 dataset, the ClusterGCN
partitions of the sampler benchmarks and the full-graph adjacencies'
canonical edge order hash to committed literals.

Dataset synthesis (``dcsbm_graph``, ``coalesce``, the features and the
splits), partitioning (``bfs_order``, ``partition_graph``) and the
canonical order of ``SparseAdj.from_graph`` are host-time hot spots that
get rewritten for speed.  A rewrite must build the same graphs, the same
partitions and the same edge orders byte for byte; these pins are that
proof.
A literal moves only with a deliberate behaviour change.  Print the
current values with:

    PYTHONPATH=src python tests/test_cold_start_pins.py
"""

import hashlib

import numpy as np
import pytest

from repro.datasets.registry import DATASET_NAMES, get_dataset
from repro.graph.partition import partition_graph
from repro.kernels.adj import SparseAdj
from repro.sampling.cluster import ClusterSampler

#: ``(dataset, scale)`` -> sha256 of (indptr, indices, features, labels,
#: train/val/test masks): every dataset at its default size, plus the
#: scales the tests and ``perf/`` build.
DATASET_PINS = {
    ("ppi", 1.0):
        "ac2bd834f2cf1bd974e9a857165625c5c309924a4c3c351437596c7a2157eae6",
    ("flickr", 1.0):
        "344dd6dd899eecc07302cfd8cabb4f85b3f94cf75300e93ccbcc2d276278cdc7",
    ("ogbn-arxiv", 1.0):
        "4cc974ed59c2e3c951c76179a253dabe58e6a71f582179a2410cea84aa4212dd",
    ("reddit", 1.0):
        "95c6f1fe2798de8f36d7ee322f1ed74d7ec9051f6ecb1aff0efb625bdcca65d1",
    ("yelp", 1.0):
        "56f111fd58f8dc0c87b5fd921448b440d19378b5f80d88a7b73fa6cfd05f645a",
    ("ogbn-products", 1.0):
        "eadc6b5fbc95ab9ea98a8bda15fe28c3a42fc3d65c5fe8d9463d5c74d2414618",
    ("ppi", 0.3):
        "1a9cb96549f02a9886af73cf3b76b40c1224a4a479bc34fd9a3c79d37ec16940",
    ("ogbn-arxiv", 0.5):
        "43e97d23fbd6de2a465b7be34876accc6aef8d39ceaf7a8acae881919a2aa8d5",
    ("reddit", 2.0):
        "ca64ec2d2efaa5d828b2a69b48ff7b57de4cf57e8bd3ad296e33021c4778961d",
    ("ogbn-products", 2.0):
        "5e22f30cc31b5828ff55c22df574f8aa2b254b94d9d7b2c0027628255ffec43c",
}

#: ``(dataset, seed)`` at scale 2.0, with the ClusterGCN sampler's part
#: count -> (sha256 of the assignments, edge cut).
PARTITION_PINS = {
    ("reddit", 0): (
        "71cc323a1b8351fc8eeaa030d3b42916a4853edbaa9aee92e1022045b198d160",
        150182),
    ("reddit", 1): (
        "c54a4f2d035b7684647451cb8557efa86c2f20e003b87c6b5df03d0cef122613",
        150262),
    ("ogbn-products", 0): (
        "bbb53ec2710d5ac958b69deeac5757961332b33c2824635baf6810e3e6cdd217",
        112314),
    ("ogbn-products", 1): (
        "9c143146cfc1bdeae6754b9b643e4313cbc7a3070304ef7ace75541f6bec8d0f",
        112462),
}

#: ``(dataset, scale)`` -> sha256 of ``SparseAdj.from_graph``'s canonical
#: ``(src, dst)``: the full-graph adjacencies ``perf/`` and the tests build.
EDGE_ORDER_PINS = {
    ("ppi", 0.3):
        "ab8c80a5282b50ab9015d28910df5a37948197d347c6c09539dd432fc701804e",
    ("ogbn-arxiv", 0.5):
        "fb9c81734e5e6ec7287dcb771a25ac633229697746a9277498fe63579371cb41",
    ("reddit", 2.0):
        "0ef5eaa3ce8577a3c2fcfd61920367040b541d2d5549a13e847e43c29c99e854",
    ("ogbn-products", 2.0):
        "180fb42b0bc629e7d658b85fac36b23a9032460b16dd90bcdf1b75c2ad849db7",
}


def digest(*arrays: np.ndarray) -> str:
    """sha256 over each array's dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def dataset_digest(name: str, scale: float) -> str:
    g = get_dataset(name, scale)
    return digest(g.adj.indptr, g.adj.indices, g.features, g.labels,
                  g.train_mask, g.val_mask, g.test_mask)


def partition_pin(name: str, seed: int):
    graph = get_dataset(name, 2.0)
    parts = ClusterSampler(graph).actual_num_parts
    result = partition_graph(graph.adj, parts, seed=seed)
    return digest(result.assignments), result.edge_cut


def edge_order_digest(name: str, scale: float) -> str:
    adj = SparseAdj.from_graph(get_dataset(name, scale))
    return digest(adj.src, adj.dst)


def test_pins_cover_every_dataset():
    assert {name for name, _ in DATASET_PINS} == set(DATASET_NAMES)


@pytest.mark.parametrize("name,scale", sorted(DATASET_PINS))
def test_dataset_bytes_are_pinned(name, scale):
    assert dataset_digest(name, scale) == DATASET_PINS[name, scale]


@pytest.mark.parametrize("name,seed", sorted(PARTITION_PINS))
def test_partition_bytes_are_pinned(name, seed):
    assert partition_pin(name, seed) == PARTITION_PINS[name, seed]


@pytest.mark.parametrize("name,scale", sorted(EDGE_ORDER_PINS))
def test_full_graph_edge_order_is_pinned(name, scale):
    assert edge_order_digest(name, scale) == EDGE_ORDER_PINS[name, scale]


if __name__ == "__main__":
    for name, scale in DATASET_PINS:
        print(f"    ({name!r}, {scale}): {dataset_digest(name, scale)!r},")
    for name, seed in PARTITION_PINS:
        print(f"    ({name!r}, {seed}): {partition_pin(name, seed)!r},")
    for name, scale in EDGE_ORDER_PINS:
        print(f"    ({name!r}, {scale}): {edge_order_digest(name, scale)!r},")
