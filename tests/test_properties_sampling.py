"""Property-based tests on the sampler algorithms (hypothesis)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datasets.base import DatasetSpec, build_dataset
from repro.errors import SamplerError
from repro.graph.formats import (
    INDEX_DTYPE,
    AdjacencyCOO,
    IdTable,
    flat_positions,
    gather_neighborhoods,
    induced_subgraph,
)
from repro.graph.graph import Split
from repro.sampling import neighbor
from repro.sampling.cluster import ClusterSampler
from repro.sampling.neighbor import NeighborSampler, sample_block_neighbors
from repro.sampling.randomwalk import RandomWalkSampler
from repro.sampling.relabel import block_locals

settings.register_profile("repro-sampling", max_examples=15, deadline=None)
settings.load_profile("repro-sampling")


def _graph(seed: int):
    spec = DatasetSpec(
        name=f"prop-{seed}",
        description="property-test graph",
        logical_num_nodes=5_000,
        logical_num_edges=40_000,
        num_features=8,
        num_classes=4,
        multilabel=False,
        split=Split(0.6, 0.2, 0.2),
        actual_num_nodes=200,
        actual_num_edges=1600,
        num_communities=4,
        seed=seed,
    )
    return build_dataset(spec)


GRAPH_SEEDS = st.integers(min_value=0, max_value=5)


class TestNeighborProperties:
    @given(GRAPH_SEEDS, st.integers(1, 8), st.integers(1, 8),
           st.integers(0, 100))
    def test_blocks_always_chain(self, gseed, f1, f2, sseed):
        graph = _graph(gseed)
        sampler = NeighborSampler(graph, fanouts=(f1, f2), batch_size=64,
                                  seed=sseed)
        roots = graph.train_nodes()[:5]
        batch = sampler.sample(roots)
        assert np.array_equal(batch.blocks[0].dst_nodes,
                              batch.blocks[1].src_nodes)
        assert np.array_equal(batch.blocks[-1].dst_nodes, roots)
        for block in batch.blocks:
            assert np.array_equal(block.src_nodes[:block.dst_nodes.size],
                                  block.dst_nodes)

    @given(GRAPH_SEEDS, st.integers(1, 6), st.integers(0, 100))
    def test_fanout_bound_holds(self, gseed, fanout, sseed):
        graph = _graph(gseed)
        sampler = NeighborSampler(graph, fanouts=(fanout,), batch_size=64,
                                  seed=sseed)
        batch = sampler.sample(graph.train_nodes()[:8])
        block = batch.blocks[0]
        if block.num_edges:
            per_dst = np.bincount(block.dst)
            assert per_dst.max() <= fanout

    @given(GRAPH_SEEDS, st.integers(0, 50))
    def test_work_is_positive_and_finite(self, gseed, sseed):
        graph = _graph(gseed)
        sampler = NeighborSampler(graph, seed=sseed)
        batch = sampler.sample(graph.train_nodes()[:4])
        assert batch.work.items > 0
        assert np.isfinite(batch.work.items)
        assert np.isfinite(batch.work.fetch_bytes)


class TestClusterProperties:
    @given(GRAPH_SEEDS, st.integers(2, 12), st.integers(1, 4))
    def test_epoch_touches_each_node_at_most_once(self, gseed, parts, per):
        if per > parts:
            return
        graph = _graph(gseed)
        sampler = ClusterSampler(graph, num_parts=parts, parts_per_batch=per,
                                 seed=0)
        seen = []
        for batch in sampler.epoch_batches():
            seen.extend(batch.nodes.tolist())
        assert len(seen) == len(set(seen))

    @given(GRAPH_SEEDS, st.integers(0, 50))
    def test_batch_edges_stay_local(self, gseed, sseed):
        graph = _graph(gseed)
        sampler = ClusterSampler(graph, seed=sseed)
        batch = sampler.sample()
        if batch.num_edges:
            assert batch.src.max() < batch.num_nodes
            assert batch.dst.max() < batch.num_nodes


class TestWalkProperties:
    @given(GRAPH_SEEDS, st.integers(0, 4), st.integers(0, 50))
    def test_walk_rows_are_paths_or_stalls(self, gseed, length, sseed):
        graph = _graph(gseed)
        sampler = RandomWalkSampler(graph, num_roots=100, walk_length=length,
                                    seed=sseed)
        path = sampler.walk(np.arange(min(20, graph.num_nodes)))
        assert path.shape[1] == length + 1
        for row in path:
            for a, b in zip(row[:-1], row[1:]):
                assert a == b or b in graph.adj.neighbors(int(a))

    @given(GRAPH_SEEDS, st.integers(0, 50))
    def test_subgraph_nodes_sorted_unique(self, gseed, sseed):
        graph = _graph(gseed)
        batch = RandomWalkSampler(graph, seed=sseed).sample()
        assert np.array_equal(batch.nodes, np.unique(batch.nodes))


def sort_block_locals(src_global, dst_global, dst_nodes):
    """The sort-based ``block_locals`` the table relabel replaced, kept
    verbatim as its oracle: one ``np.unique(return_inverse=True)`` over
    the concatenated ids, dst ids resolved by ``searchsorted``."""
    src_global = np.asarray(src_global, dtype=INDEX_DTYPE)
    dst_global = np.asarray(dst_global, dtype=INDEX_DTYPE)
    dst_nodes = np.asarray(dst_nodes, dtype=INDEX_DTYPE)

    combined = np.concatenate([dst_nodes, src_global])
    uniq, inverse = np.unique(combined, return_inverse=True)
    # Permute the sorted uniques into block order — seeds first (input
    # order preserved), then the fresh ids in sorted order.  ``to_local``
    # maps a position in ``uniq`` to a position in ``src_nodes``.
    seed_pos = inverse[:dst_nodes.size]
    is_seed = np.zeros(uniq.size, dtype=bool)
    is_seed[seed_pos] = True
    fresh_pos = np.nonzero(~is_seed)[0]
    to_local = np.empty(uniq.size, dtype=INDEX_DTYPE)
    to_local[seed_pos] = np.arange(dst_nodes.size, dtype=INDEX_DTYPE)
    to_local[fresh_pos] = dst_nodes.size + np.arange(
        fresh_pos.size, dtype=INDEX_DTYPE
    )
    src_nodes = np.empty(uniq.size, dtype=INDEX_DTYPE)
    src_nodes[to_local] = uniq
    src_local = to_local[inverse[dst_nodes.size:]]

    if dst_global.size == 0:
        dst_local = np.empty(0, dtype=INDEX_DTYPE)
    else:
        if uniq.size == 0:
            raise SamplerError("cannot relabel against an empty id map")
        pos = np.minimum(np.searchsorted(uniq, dst_global), uniq.size - 1)
        if not np.array_equal(uniq[pos], dst_global):
            missing = dst_global[uniq[pos] != dst_global]
            raise SamplerError(
                f"relabel: {missing.size} id(s) not in the id map "
                f"(first missing: {int(missing[0])})"
            )
        dst_local = to_local[pos]
    return src_nodes, src_local, dst_local


@st.composite
def _edge_lists(draw, num_nodes):
    """``(src_global, dst_global, dst_nodes)`` over ``[0, num_nodes)``:
    duplicate-free seeds in any order, sources anywhere (possibly none,
    possibly all seeds), destinations anywhere — so sometimes outside the
    block's id map, which both implementations must reject."""
    ids = st.integers(0, num_nodes - 1)
    seeds = draw(st.lists(ids, unique=True, max_size=num_nodes))
    src = draw(st.one_of(
        st.lists(ids, max_size=40),
        st.lists(st.sampled_from(seeds), max_size=40) if seeds
        else st.just([]),
    ))
    dst = draw(st.lists(ids, max_size=len(src)))
    return src, dst, seeds


class TestTableRelabelMatchesSort:
    """Law: the id-table ``block_locals`` is the sort, bit for bit."""

    @staticmethod
    def _agree(table, src, dst, seeds):
        try:
            expected = sort_block_locals(src, dst, seeds)
        except SamplerError:
            with pytest.raises(SamplerError, match="not in the id map"):
                block_locals(src, dst, seeds, table)
        else:
            got = block_locals(src, dst, seeds, table)
            for name, g, e in zip(("src_nodes", "src_local", "dst_local"),
                                  got, expected):
                assert g.dtype == e.dtype == INDEX_DTYPE, name
                assert np.array_equal(g, e), name
        # Error or not, the scratch is clean for the next caller.
        assert np.all(table.local == -1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 48).flatmap(lambda n: st.tuples(
        st.just(n), _edge_lists(n), _edge_lists(n))))
    @example((4, ([], [], [0, 3]), ([3, 0, 3], [0, 3], [3, 0])))
    @example((5, ([2, 2], [4], [1]), ([0, 4], [0, 4, 1], [1])))
    def test_back_to_back_blocks_on_one_scratch(self, case):
        num_nodes, first, second = case
        table = IdTable(num_nodes)
        self._agree(table, *first)
        self._agree(table, *second)
        self._agree(table, *first)

    @given(GRAPH_SEEDS, st.integers(1, 8), st.integers(0, 100))
    def test_sampler_blocks_match_the_sort(self, gseed, fanout, sseed):
        graph = _graph(gseed)
        sampler = NeighborSampler(graph, fanouts=(fanout, fanout),
                                  batch_size=64, seed=sseed)
        batch = sampler.sample(graph.train_nodes()[:6])
        for block in batch.blocks:
            src_nodes, src_local, dst_local = sort_block_locals(
                block.src_nodes[block.src], block.dst_nodes[block.dst],
                block.dst_nodes)
            assert np.array_equal(block.src_nodes, src_nodes)
            assert np.array_equal(block.src, src_local)
            assert np.array_equal(block.dst, dst_local)
        assert np.all(graph.adj.id_table.local == -1)


def sort_sample_block_neighbors(indptr, indices, seeds, fanout, rng):
    """The full-sort ``sample_block_neighbors`` the partial selection
    replaced, kept verbatim as its oracle: one argsort of ``segment + key``
    over every candidate of every subsampled seed."""
    if fanout < 1:
        raise SamplerError("fanout must be >= 1")
    seeds = np.asarray(seeds, dtype=INDEX_DTYPE)
    empty = np.empty(0, dtype=INDEX_DTYPE)
    if seeds.size == 0:
        return empty, empty, 0
    starts = indptr[seeds]
    degrees = (indptr[seeds + 1] - starts).astype(INDEX_DTYPE, copy=False)
    examined = int(degrees.sum())
    if examined == 0:
        return empty, empty, 0

    counts = np.minimum(degrees, fanout)
    out_starts = np.cumsum(counts) - counts
    srcs = np.empty(int(counts.sum()), dtype=INDEX_DTYPE)

    take_all = degrees <= fanout
    take_idx = np.nonzero(take_all & (degrees > 0))[0]
    if take_idx.size:
        positions = flat_positions(starts[take_idx], degrees[take_idx])
        srcs[flat_positions(out_starts[take_idx], counts[take_idx])] = (
            indices[positions]
        )

    sub_idx = np.nonzero(~take_all)[0]
    if sub_idx.size:
        sub_degrees = degrees[sub_idx]
        candidates = flat_positions(starts[sub_idx], sub_degrees)
        keys = rng.random(candidates.size)
        segment = np.repeat(np.arange(sub_idx.size), sub_degrees)
        order = np.argsort(segment + keys)
        rank = (np.arange(candidates.size, dtype=INDEX_DTYPE)
                - np.repeat(np.cumsum(sub_degrees) - sub_degrees, sub_degrees))
        chosen = candidates[order[rank < fanout]]
        srcs[flat_positions(out_starts[sub_idx], counts[sub_idx])] = (
            indices[chosen]
        )

    dsts = np.repeat(seeds, counts)
    return srcs, dsts, examined


def _csr(degrees, num_nodes, seed):
    """CSR arrays with the given out-degrees and random neighbor ids."""
    degrees = np.asarray(degrees, dtype=INDEX_DTYPE)
    indptr = np.zeros(degrees.size + 1, dtype=INDEX_DTYPE)
    indptr[1:] = np.cumsum(degrees)
    indices = np.random.default_rng(seed).integers(
        0, num_nodes, int(indptr[-1]))
    return indptr, indices


@st.composite
def _frontiers(draw):
    """``(indptr, indices, seeds, fanout)``: out-degrees mix empty rows,
    the take-all edge ``f``, the first subsampled degree ``f + 1`` and
    power-law hubs up to ~110 f; seeds may repeat (a hub drawn twice)."""
    fanout = draw(st.integers(1, 40))
    degree = st.one_of(
        st.sampled_from([0, fanout, fanout + 1]),
        st.integers(0, 3 * fanout),
        st.integers(0, 10).map(lambda e: int((fanout + 1) * 1.6 ** e)),
    )
    degrees = draw(st.lists(degree, min_size=1, max_size=24))
    indptr, indices = _csr(degrees, len(degrees), draw(st.integers(0, 99)))
    seeds = draw(st.lists(st.integers(0, len(degrees) - 1), max_size=32))
    return indptr, indices, np.array(seeds, dtype=INDEX_DTYPE), fanout


class _PlantedKeys:
    """A generator stand-in whose one ``random(n)`` call returns chosen
    keys, so a test can plant ties and rounding cases."""

    def __init__(self, keys):
        self.keys = np.asarray(keys, dtype=np.float64)

    def random(self, n):
        assert n == self.keys.size
        return self.keys.copy()


@pytest.fixture
def full_sorts(monkeypatch):
    """Count the selections that fell back to sorting every key."""
    calls = []
    full = neighbor._full_sort_positions

    def spy(*args):
        calls.append(args[0].size)
        return full(*args)

    monkeypatch.setattr(neighbor, "_full_sort_positions", spy)
    return calls


class TestPartialSelectionMatchesSort:
    """Law: sorting only the keys below the limit picks what sorting every
    key picks — same neighbors, same order, same RNG stream."""

    @staticmethod
    def _agree(indptr, indices, seeds, fanout, new_rng, old_rng):
        srcs, counts, examined = sample_block_neighbors(
            indptr, indices, seeds, fanout, new_rng)
        expected = sort_sample_block_neighbors(
            indptr, indices, seeds, fanout, old_rng)
        assert srcs.dtype == expected[0].dtype == INDEX_DTYPE
        assert np.array_equal(srcs, expected[0])
        degrees = indptr[seeds + 1] - indptr[seeds]
        assert np.array_equal(counts, np.minimum(degrees, fanout))
        assert np.array_equal(np.repeat(seeds, counts), expected[1])
        assert examined == expected[2]

    @settings(max_examples=300, deadline=None)
    @given(_frontiers(), st.integers(0, 2**32 - 1))
    def test_fuzzed_frontiers(self, frontier, rseed):
        new_rng = np.random.default_rng(rseed)
        old_rng = np.random.default_rng(rseed)
        self._agree(*frontier, new_rng, old_rng)
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_plain_keys_take_the_partial_path(self, full_sorts):
        indptr, indices = _csr([400, 7, 0, 90, 1200], 2000, seed=0)
        seeds = np.arange(5)
        for fanout in (1, 10, 25):
            self._agree(indptr, indices, seeds, fanout,
                        np.random.default_rng(fanout),
                        np.random.default_rng(fanout))
        assert full_sorts == []

    @staticmethod
    def _planted(degrees, fanout, keys, full_sorts):
        indptr, indices = _csr(degrees, 5000, seed=1)
        seeds = np.arange(len(degrees), dtype=INDEX_DTYPE)
        TestPartialSelectionMatchesSort._agree(
            indptr, indices, seeds, fanout,
            _PlantedKeys(keys), _PlantedKeys(keys))
        assert full_sorts == [len(keys)]

    @staticmethod
    def _spread(n, lo, hi):
        """``n`` distinct nonzero keys in ``(lo, hi)``, shuffled."""
        step = (hi - lo) / n
        return np.random.default_rng(n).permutation(
            lo + step * (np.arange(n) + 0.5))

    def test_too_few_survivors_fall_back(self, full_sorts):
        # (a) Every key of the second segment is above its limit.
        keys = np.concatenate([self._spread(200, 0.0, 1.0),
                               self._spread(200, 0.5, 1.0)])
        self._planted([200, 200], 3, keys, full_sorts)

    def test_duplicate_keys_fall_back(self, full_sorts):
        # (b) Equal survivor keys inside one segment.
        keys = self._spread(200, 0.0, 1.0)
        keys[[3, 50, 120]] = 0.0625
        self._planted([200], 3, keys, full_sorts)

    def test_keys_rounding_to_the_next_segment_fall_back(self, full_sorts):
        # (b) Degree f + 1 keeps every key; 1 + (1 - 2**-53) rounds to 2.0
        # and ties the third segment's zero key.
        top = 1.0 - 2.0 ** -53
        assert 1.0 + top == 2.0
        keys = np.array([0.5, 0.25, 0.75,  # segment 0
                         0.5, top, 0.25,  # segment 1
                         0.0, 0.75, 0.5])  # segment 2
        self._planted([3, 3, 3], 2, keys, full_sorts)

    def test_rounded_non_survivor_tying_a_zero_key_falls_back(
            self, full_sorts):
        # (b) The rounded-up key is above segment 1's limit, so no two
        # survivors tie; segment 2's zero key still ties its sort value.
        top = 1.0 - 2.0 ** -53
        keys = np.concatenate([self._spread(200, 0.0, 1.0),
                               self._spread(200, 0.0, 1.0),
                               self._spread(200, 0.0, 1.0)])
        keys[200 + 7] = top
        keys[400 + 9] = 0.0
        self._planted([200, 200, 200], 2, keys, full_sorts)

    def test_last_pick_rounding_onto_the_limit_falls_back(self, full_sorts):
        # (c) Segment 1's only survivor sits just under the limit, and
        # 1 + key rounds onto 1 + limit, the value of the non-survivor
        # whose key is the limit itself.
        fanout, degree = 1, 200
        limit = float(neighbor.survivor_limit(fanout, np.array([degree]))[0])
        under = np.nextafter(limit, 0.0)
        assert 1.0 + under == 1.0 + limit
        keys = np.concatenate([self._spread(degree, 0.0, 1.0),
                               self._spread(degree, 0.5, 1.0)])
        keys[degree + 11] = under
        keys[degree + 12] = limit
        self._planted([degree, degree], fanout, keys, full_sorts)

    def test_sampler_batches_match_the_sort(self, monkeypatch):
        """Whole ``NeighborSampler`` batches on a property graph: the
        blocks equal those built from the full-sort selection."""
        graph = _graph(0)
        old = NeighborSampler(graph, fanouts=(4, 3), batch_size=64, seed=3)
        new = NeighborSampler(graph, fanouts=(4, 3), batch_size=64, seed=3)
        roots = graph.train_nodes()[:16]
        got = new.sample(roots)
        monkeypatch.setattr(neighbor, "sample_block_neighbors",
                            _sorting_sampler)
        expected = old.sample(roots)
        for g, e in zip(got.blocks, expected.blocks):
            for name in ("src_nodes", "dst_nodes", "src", "dst"):
                assert np.array_equal(getattr(g, name), getattr(e, name))
        assert new.rng.bit_generator.state == old.rng.bit_generator.state


def _sorting_sampler(indptr, indices, seeds, fanout, rng):
    """The oracle in the current return convention."""
    srcs, _, examined = sort_sample_block_neighbors(
        indptr, indices, seeds, fanout, rng)
    degrees = indptr[seeds + 1] - indptr[seeds]
    return srcs, np.minimum(degrees, fanout), examined


def repeat_induced_subgraph(csr, nodes, order="src"):
    """The ``induced_subgraph`` the one-pass keep replaced, kept verbatim
    as its oracle: every incident edge's owner by ``np.repeat``, then
    three boolean compressions."""
    nodes = np.asarray(nodes, dtype=INDEX_DTYPE)
    neighbors, degrees, positions = gather_neighborhoods(
        csr.indptr, csr.indices, nodes
    )
    mapping = csr.id_table.local
    try:
        mapping[nodes] = np.arange(nodes.size, dtype=INDEX_DTYPE)
        local_other = mapping[neighbors]
    finally:
        mapping[nodes] = -1
    keep = local_other >= 0
    local_owner = np.repeat(np.arange(nodes.size, dtype=INDEX_DTYPE), degrees)
    if order == "src":
        sub = AdjacencyCOO(nodes.size, local_owner[keep], local_other[keep])
    else:
        sub = AdjacencyCOO(nodes.size, local_other[keep], local_owner[keep])
    return sub, positions[keep]


@st.composite
def _selections(draw):
    """A random COO graph (duplicates and self loops allowed) and a
    duplicate-free node selection in any order."""
    num_nodes = draw(st.integers(1, 40))
    ids = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=200))
    src = np.array([e[0] for e in edges], dtype=INDEX_DTYPE)
    dst = np.array([e[1] for e in edges], dtype=INDEX_DTYPE)
    nodes = draw(st.lists(ids, unique=True, max_size=num_nodes))
    return (AdjacencyCOO(num_nodes, src, dst).to_csr(),
            np.array(nodes, dtype=INDEX_DTYPE))


class TestInducedSubgraphMatchesRepeat:
    """Law: the searchsorted owners keep exactly the edges, in exactly the
    order, that the per-edge repeat kept."""

    @settings(max_examples=300, deadline=None)
    @given(_selections(), st.sampled_from(["src", "dst"]))
    def test_fuzzed_selections(self, case, order):
        csr, nodes = case
        sub, kept = induced_subgraph(csr, nodes, order=order)
        expected, expected_kept = repeat_induced_subgraph(csr, nodes, order)
        assert sub.num_nodes == expected.num_nodes
        for got, want in ((sub.src, expected.src), (sub.dst, expected.dst),
                          (kept, expected_kept)):
            assert got.dtype == want.dtype == INDEX_DTYPE
            assert np.array_equal(got, want)
        assert np.all(csr.id_table.local == -1)
