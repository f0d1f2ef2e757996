"""Tests for the shared vectorized sampling engine.

Covers the relabel/gather primitives (:mod:`repro.sampling.relabel`,
:mod:`repro.graph.formats`), edge cases the vectorized paths must handle
(degree-0 frontiers, empty extras, zero-length walks, fanout above the max
degree), and seed-pinned equivalence of :func:`sample_block_neighbors`
against the original per-seed reference loop.
"""

import numpy as np
import pytest

from repro.errors import SamplerError
from repro.graph.formats import (
    INDEX_DTYPE,
    AdjacencyCOO,
    IdTable,
    coalesce,
    flat_positions,
    gather_neighborhoods,
    induced_subgraph,
)
from repro.sampling.neighbor import NeighborSampler, sample_block_neighbors
from repro.sampling.randomwalk import RandomWalkSampler
from repro.sampling.relabel import block_locals


def reference_sample_block_neighbors(indptr, indices, seeds, fanout, rng):
    """The original per-seed Python loop, kept as the behavioral oracle."""
    srcs, dsts, examined = [], [], 0
    for seed in seeds:
        lo, hi = indptr[seed], indptr[seed + 1]
        degree = int(hi - lo)
        if degree == 0:
            continue
        examined += degree
        neighborhood = indices[lo:hi]
        if degree <= fanout:
            chosen = neighborhood
        else:
            chosen = neighborhood[rng.choice(degree, size=fanout, replace=False)]
        srcs.append(chosen)
        dsts.append(np.full(chosen.size, seed, dtype=INDEX_DTYPE))
    if srcs:
        return np.concatenate(srcs), np.concatenate(dsts), examined
    empty = np.empty(0, dtype=INDEX_DTYPE)
    return empty, empty, examined


def random_csr(num_nodes, num_edges, seed):
    """A coalesced (duplicate-free) random CSR adjacency."""
    rng = np.random.default_rng(seed)
    coo = coalesce(AdjacencyCOO(
        num_nodes,
        rng.integers(0, num_nodes, num_edges),
        rng.integers(0, num_nodes, num_edges),
    ))
    return coo.to_csr()


class TestFlatPositions:
    def test_concatenates_ranges(self):
        out = flat_positions(np.array([10, 20]), np.array([2, 3]))
        assert np.array_equal(out, [10, 11, 20, 21, 22])

    def test_zero_length_segments_skipped(self):
        out = flat_positions(np.array([5, 7, 9]), np.array([2, 0, 1]))
        assert np.array_equal(out, [5, 6, 9])

    def test_all_empty(self):
        out = flat_positions(np.array([3, 4]), np.array([0, 0]))
        assert out.size == 0 and out.dtype == INDEX_DTYPE


class TestGatherNeighborhoods:
    def test_matches_per_node_slices(self):
        csr = random_csr(50, 400, seed=3)
        nodes = np.array([7, 0, 33, 7, 12])
        neighbors, degrees, positions = gather_neighborhoods(
            csr.indptr, csr.indices, nodes
        )
        expected = np.concatenate([csr.neighbors(int(n)) for n in nodes])
        assert np.array_equal(neighbors, expected)
        assert np.array_equal(degrees, [csr.neighbors(int(n)).size for n in nodes])
        assert np.array_equal(csr.indices[positions], neighbors)

    def test_degree_zero_rows_contribute_nothing(self):
        # 0 -> 1, node 2 has no out-neighbors.
        csr = AdjacencyCOO(3, np.array([0]), np.array([1])).to_csr()
        neighbors, degrees, _ = gather_neighborhoods(
            csr.indptr, csr.indices, np.array([2, 0, 2])
        )
        assert np.array_equal(neighbors, [1])
        assert np.array_equal(degrees, [0, 1, 0])

    def test_empty_frontier(self):
        csr = random_csr(10, 40, seed=4)
        neighbors, degrees, positions = gather_neighborhoods(
            csr.indptr, csr.indices, np.empty(0, dtype=INDEX_DTYPE)
        )
        assert neighbors.size == degrees.size == positions.size == 0


class TestBlockLocals:
    def test_roundtrip_and_prefix(self):
        dst_nodes = np.array([10, 4, 7])
        src_g = np.array([4, 99, 10, 23, 99])
        dst_g = np.array([10, 10, 4, 7, 7])
        src_nodes, src_local, dst_local = block_locals(
            src_g, dst_g, dst_nodes, IdTable(100))
        assert np.array_equal(src_nodes[:dst_nodes.size], dst_nodes)
        assert np.array_equal(src_nodes[src_local], src_g)
        assert np.array_equal(dst_nodes[dst_local], dst_g)

    def test_empty_extra_means_src_nodes_equal_dst_nodes(self):
        dst_nodes = np.array([2, 0, 1])
        src_g = np.array([0, 1, 2, 0])
        dst_g = np.array([2, 2, 0, 1])
        src_nodes, _, _ = block_locals(
            src_g, dst_g, dst_nodes, IdTable(100))
        assert np.array_equal(src_nodes, dst_nodes)

    def test_duplicate_seeds_rejected_naming_the_first(self):
        table = IdTable(10)
        with pytest.raises(SamplerError, match=r"first duplicate: 1\b"):
            block_locals(np.array([5, 2]), np.array([1, 2]),
                         np.array([1, 2, 2, 1]), table)
        assert np.all(table.local == -1)

    def test_ids_outside_the_table_rejected(self):
        table = IdTable(10)
        seeds = np.array([1, 2])
        for src, dst, nodes in (
            (np.array([10]), np.array([1]), seeds),
            (np.array([-1]), np.array([1]), seeds),
            (np.array([3]), np.array([-4]), seeds),
            (np.array([3]), np.array([1]), np.array([1, 11])),
        ):
            with pytest.raises(SamplerError, match="node range"):
                block_locals(src, dst, nodes, table)
        assert np.all(table.local == -1)

    def test_out_of_range_error_names_the_first_bad_id(self):
        table = IdTable(10)
        with pytest.raises(SamplerError, match=r"src_global id -3 outside"):
            block_locals(np.array([4, -3, 12]), np.array([1, 1, 1]),
                         np.array([1]), table)
        assert np.all(table.local == -1)

    def test_dst_outside_the_block_rejected(self):
        table = IdTable(10)
        with pytest.raises(SamplerError, match="first missing: 7"):
            block_locals(np.array([5]), np.array([1, 7]),
                         np.array([1, 2]), table)
        assert np.all(table.local == -1)


class TestNeighborEquivalence:
    """Seed-pinned equivalence of the vectorized sampler vs the reference."""

    def test_dsts_and_examined_identical(self):
        csr = random_csr(200, 3000, seed=11)
        seeds = np.random.default_rng(0).choice(200, size=64, replace=False)
        for fanout in (1, 3, 8):
            new = sample_block_neighbors(
                csr.indptr, csr.indices, seeds, fanout, np.random.default_rng(1)
            )
            ref = reference_sample_block_neighbors(
                csr.indptr, csr.indices, seeds, fanout, np.random.default_rng(1)
            )
            assert np.array_equal(np.repeat(seeds, new[1]), ref[1])  # dsts
            assert new[0].size == ref[0].size
            assert new[2] == ref[2]  # examined

    def test_per_seed_sample_is_valid(self):
        csr = random_csr(200, 3000, seed=12)
        seeds = np.arange(120)
        fanout = 4
        src, counts, _ = sample_block_neighbors(
            csr.indptr, csr.indices, seeds, fanout, np.random.default_rng(2)
        )
        dst = np.repeat(seeds, counts)
        for seed in np.unique(dst):
            mine = src[dst == seed]
            hood = csr.neighbors(int(seed))
            assert mine.size == min(hood.size, fanout)
            assert mine.size == np.unique(mine).size  # no replacement
            assert np.isin(mine, hood).all()  # subset of the neighborhood

    def test_fanout_above_max_degree_is_exact_take_all(self):
        """With fanout > max degree neither impl consumes randomness, so
        outputs must match the reference bit-for-bit (srcs included)."""
        csr = random_csr(100, 600, seed=13)
        seeds = np.arange(100)
        fanout = int(csr.degrees().max()) + 1
        new = sample_block_neighbors(
            csr.indptr, csr.indices, seeds, fanout, np.random.default_rng(3)
        )
        ref = reference_sample_block_neighbors(
            csr.indptr, csr.indices, seeds, fanout, np.random.default_rng(3)
        )
        assert np.array_equal(new[0], ref[0])
        assert np.array_equal(np.repeat(seeds, new[1]), ref[1])
        assert new[2] == ref[2]

    def test_marginal_frequencies_match_uniform(self):
        """Each of a hub's neighbors is kept with probability fanout/degree."""
        degree, fanout, trials = 16, 4, 4000
        hub = degree  # neighbors are nodes 0..degree-1
        coo = AdjacencyCOO(
            degree + 1,
            np.full(degree, hub),
            np.arange(degree),
        )
        csr = coo.to_csr()
        # One call with the hub repeated = `trials` independent draws.
        seeds = np.full(trials, hub)
        src, _, _ = sample_block_neighbors(
            csr.indptr, csr.indices, seeds, fanout, np.random.default_rng(4)
        )
        freq = np.bincount(src, minlength=degree) / trials
        assert freq.size >= degree
        expected = fanout / degree
        assert np.all(np.abs(freq[:degree] - expected) < 0.03)

    def test_all_degree_zero_seed_batch(self):
        # Only node 0 has an out-edge; seeds 2..4 are all degree 0.
        csr = AdjacencyCOO(5, np.array([0]), np.array([1])).to_csr()
        seeds = np.array([2, 3, 4])
        src, counts, examined = sample_block_neighbors(
            csr.indptr, csr.indices, seeds, 5, np.random.default_rng(0)
        )
        dst = np.repeat(seeds, counts)
        assert src.size == dst.size == 0
        assert examined == 0

    def test_empty_seed_batch(self):
        csr = random_csr(10, 50, seed=14)
        seeds = np.empty(0, dtype=INDEX_DTYPE)
        src, counts, examined = sample_block_neighbors(
            csr.indptr, csr.indices, seeds, 5, np.random.default_rng(0)
        )
        dst = np.repeat(seeds, counts)
        assert src.size == dst.size == 0
        assert examined == 0


class TestNeighborSamplerEdgeCases:
    def test_zero_fanout_rejected_eagerly(self, tiny_graph):
        with pytest.raises(SamplerError, match="fanouts must all be >= 1"):
            NeighborSampler(tiny_graph, fanouts=(5, 0))

    def test_negative_fanout_rejected_eagerly(self, tiny_graph):
        with pytest.raises(SamplerError, match="fanouts must all be >= 1"):
            NeighborSampler(tiny_graph, fanouts=(-1,))

    def test_matches_reference_blocks(self, tiny_graph):
        """Full sampler: dst chains, prefixes, and edge validity hold on
        blocks produced by the vectorized relabel path."""
        sampler = NeighborSampler(tiny_graph, fanouts=(4, 3), seed=9)
        roots = tiny_graph.train_nodes()[:6]
        batch = sampler.sample(roots)
        for block in batch.blocks:
            n_dst = block.dst_nodes.size
            assert np.array_equal(block.src_nodes[:n_dst], block.dst_nodes)
            globals_src = block.src_nodes[block.src]
            globals_dst = block.dst_nodes[block.dst]
            for s, d in zip(globals_src, globals_dst):
                assert s in tiny_graph.adj.neighbors(int(d))


class TestRandomWalkEdgeCases:
    def test_walk_length_zero_paths_are_roots(self, tiny_graph):
        sampler = RandomWalkSampler(tiny_graph, num_roots=100, walk_length=0,
                                    seed=0)
        roots = np.array([5, 2, 2, 9])
        path = sampler.walk(roots)
        assert path.shape == (4, 1)
        assert np.array_equal(path[:, 0], roots)

    def test_walk_length_zero_sample_induces_root_subgraph(self, tiny_graph):
        sampler = RandomWalkSampler(tiny_graph, num_roots=100, walk_length=0,
                                    seed=0)
        roots = np.array([5, 2, 2, 9])
        batch = sampler.sample(roots)
        assert np.array_equal(batch.nodes, np.unique(roots))


class TestInducedSubgraphEquivalence:
    def test_matches_bruteforce_edge_set(self):
        csr = random_csr(60, 500, seed=15)
        nodes = np.unique(np.random.default_rng(5).choice(60, size=25))
        sub, edge_positions = induced_subgraph(csr, nodes)
        node_set = set(nodes.tolist())
        expected = set()
        for li, n in enumerate(nodes):
            for nb in csr.neighbors(int(n)):
                if int(nb) in node_set:
                    lj = int(np.searchsorted(nodes, nb))
                    expected.add((li, lj))
        assert set(zip(sub.src.tolist(), sub.dst.tolist())) == expected
        # Edge positions map back to the original CSR entries.
        assert np.array_equal(nodes[sub.dst], csr.indices[edge_positions])
