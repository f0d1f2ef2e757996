"""Tests for adjacency formats and conversions."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.formats import (
    AdjacencyCOO,
    AdjacencyCSR,
    coalesce,
    induced_subgraph,
    remove_self_loops,
    symmetrize,
)


@pytest.fixture
def coo():
    # 5 nodes: 0->1, 0->2, 1->2, 3->0, 2->2 (self loop), duplicate 0->1
    return AdjacencyCOO(
        5,
        np.array([0, 0, 1, 3, 2, 0]),
        np.array([1, 2, 2, 0, 2, 1]),
    )


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(GraphFormatError):
            AdjacencyCOO(3, np.array([0, 1]), np.array([0]))

    def test_out_of_range_src_rejected(self):
        with pytest.raises(GraphFormatError):
            AdjacencyCOO(2, np.array([2]), np.array([0]))

    def test_negative_index_rejected(self):
        with pytest.raises(GraphFormatError):
            AdjacencyCOO(2, np.array([-1]), np.array([0]))

    def test_csr_indptr_length_checked(self):
        with pytest.raises(GraphFormatError):
            AdjacencyCSR(3, np.array([0, 1]), np.array([0]))

    def test_csr_indptr_monotonic(self):
        with pytest.raises(GraphFormatError):
            AdjacencyCSR(2, np.array([0, 2, 1]), np.array([0]))

    def test_csr_endpoint_consistency(self):
        with pytest.raises(GraphFormatError):
            AdjacencyCSR(2, np.array([0, 1, 3]), np.array([0, 1]))


    @pytest.mark.parametrize("build, match", [
        (lambda: AdjacencyCOO(3, np.zeros((2, 2)), np.zeros((2, 2))),
         "must be 1-D"),
        (lambda: AdjacencyCOO(-1, [], []), "num_nodes must be non-negative"),
        (lambda: AdjacencyCOO(3, [0, 1], [1, 3]), "dst index out of range"),
        (lambda: AdjacencyCSR(3, [0, 1, 2, 2], [0, 5]),
         "neighbor index out of range"),
        (lambda: AdjacencyCSR(3, [0, 1, 2, 2], [0, -1]),
         "neighbor index out of range"),
    ])
    def test_each_malformed_array_named(self, build, match):
        with pytest.raises(GraphFormatError, match=match):
            build()


class TestConversions:
    def test_coo_to_csr_neighbors(self, coo):
        csr = coo.to_csr()
        assert sorted(csr.neighbors(0).tolist()) == [1, 1, 2]
        assert csr.neighbors(4).size == 0
        assert csr.num_edges == coo.num_edges

    def test_csr_roundtrip_through_coo(self, coo):
        csr = coo.to_csr()
        back = csr.to_coo()
        orig = sorted(zip(coo.src.tolist(), coo.dst.tolist()))
        round_ = sorted(zip(back.src.tolist(), back.dst.tolist()))
        assert orig == round_

    def test_transpose_reverses_edges(self, coo):
        csr = coo.to_csr()
        trans = csr.transpose()
        orig = sorted(zip(coo.src.tolist(), coo.dst.tolist()))
        rev = sorted(zip(trans.to_coo().dst.tolist(), trans.to_coo().src.tolist()))
        assert orig == rev

    def test_degrees(self, coo):
        assert coo.in_degrees().tolist() == [1, 2, 3, 0, 0]
        csr = coo.to_csr()
        assert csr.degrees().tolist() == [3, 1, 1, 1, 0]


class TestEdgeOps:
    def test_remove_self_loops(self, coo):
        clean = remove_self_loops(coo)
        assert clean.num_edges == coo.num_edges - 1
        assert not np.any(clean.src == clean.dst)

    def test_coalesce_removes_duplicates(self, coo):
        unique = coalesce(coo)
        assert unique.num_edges == coo.num_edges - 1
        pairs = list(zip(unique.src.tolist(), unique.dst.tolist()))
        assert len(pairs) == len(set(pairs))

    def test_coalesce_empty(self):
        empty = AdjacencyCOO(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert coalesce(empty).num_edges == 0

    def test_symmetrize(self):
        coo = AdjacencyCOO(3, np.array([0, 1]), np.array([1, 2]))
        sym = symmetrize(coo)
        pairs = set(zip(sym.src.tolist(), sym.dst.tolist()))
        assert (1, 0) in pairs and (2, 1) in pairs
        # symmetric: every edge has its reverse
        assert all((d, s) in pairs for s, d in pairs)

    def test_reverse(self, coo):
        rev = coo.reverse()
        assert rev.src.tolist() == coo.dst.tolist()
        assert rev.dst.tolist() == coo.src.tolist()


class TestInducedSubgraph:
    def test_keeps_only_internal_edges(self, coo):
        nodes = np.array([0, 1, 2])
        sub, kept = induced_subgraph(coo.to_csr(), nodes)
        # edge 3->0 must be dropped (node 3 outside)
        assert sub.num_edges == coo.num_edges - 1
        assert kept.size == sub.num_edges

    def test_relabels_to_local_ids(self):
        coo = AdjacencyCOO(4, np.array([2, 3]), np.array([3, 2]))
        sub, _ = induced_subgraph(coo.to_csr(), np.array([2, 3]))
        pairs = set(zip(sub.src.tolist(), sub.dst.tolist()))
        assert pairs == {(0, 1), (1, 0)}

    def test_node_order_defines_local_ids(self):
        coo = AdjacencyCOO(4, np.array([2]), np.array([3]))
        sub, _ = induced_subgraph(coo.to_csr(), np.array([3, 2]))
        assert (sub.src[0], sub.dst[0]) == (1, 0)

    def test_empty_selection(self, coo):
        sub, kept = induced_subgraph(coo.to_csr(), np.array([], dtype=np.int64))
        assert sub.num_edges == 0
        assert sub.num_nodes == 0

    def test_back_to_back_calls_share_one_clean_scratch(self, coo):
        """Membership goes through the CSR's id table; a call resets what
        it touched, so the next selection sees none of the last one."""
        csr = coo.to_csr()
        table = csr.id_table
        first, _ = induced_subgraph(csr, np.array([0, 1, 2]))
        assert csr.id_table is table and np.all(table.local == -1)
        second, _ = induced_subgraph(csr, np.array([3, 0]))
        assert np.all(table.local == -1)
        fresh, _ = induced_subgraph(coo.to_csr(), np.array([3, 0]))
        assert np.array_equal(second.src, fresh.src)
        assert np.array_equal(second.dst, fresh.dst)
        assert first.num_edges == coo.num_edges - 1

    @pytest.mark.parametrize("nodes, named", [
        ([2, -2], "id -2 outside"),  # would wrap to node 2: a phantom loop
        ([0, 7], "id 7 outside"),
        ([0, 1, 0], "first duplicate: 0"),  # would split node 0's edges
        ([3, 1, 2, 1, 3], "first duplicate: 3"),
    ])
    def test_bad_node_ids_rejected_naming_the_first(self, nodes, named):
        csr = AdjacencyCOO(4, np.array([0, 1, 2, 3]),
                           np.array([1, 2, 3, 0])).to_csr()
        with pytest.raises(GraphFormatError, match=named):
            induced_subgraph(csr, np.array(nodes))
        # The failed call left the shared scratch clean.
        assert np.all(csr.id_table.local == -1)
