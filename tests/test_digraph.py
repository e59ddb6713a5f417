"""Unit tests for the CSR DiGraph."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import DiGraph, from_edges
from repro.store import keys_to_edges


class TestConstruction:
    def test_valid_csr(self):
        g = DiGraph(np.array([0, 2, 3, 3]), np.array([1, 2, 0]))
        assert g.num_vertices == 3
        assert g.num_edges == 3

    def test_empty_graph(self):
        g = DiGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_vertices_without_edges(self):
        g = DiGraph(np.array([0, 0, 0, 0]), np.array([], dtype=np.int64))
        assert g.num_vertices == 3
        assert g.num_edges == 0

    def test_rejects_bad_indptr_start(self):
        with pytest.raises(GraphError, match="indptr"):
            DiGraph(np.array([1, 2]), np.array([0]))

    def test_rejects_bad_indptr_end(self):
        with pytest.raises(GraphError, match="indptr"):
            DiGraph(np.array([0, 5]), np.array([0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(GraphError, match="non-decreasing"):
            DiGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_rejects_out_of_range_targets(self):
        with pytest.raises(GraphError, match="out of range"):
            DiGraph(np.array([0, 1]), np.array([5]))

    def test_rejects_2d_arrays(self):
        with pytest.raises(GraphError, match="one-dimensional"):
            DiGraph(np.zeros((2, 2)), np.array([0]))

    def test_rejects_empty_indptr(self):
        with pytest.raises(GraphError, match="at least one"):
            DiGraph(np.array([], dtype=np.int64), np.array([], dtype=np.int64))

    def test_len_is_vertex_count(self, diamond):
        assert len(diamond) == 4

    def test_equality(self, diamond):
        other = from_edges([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
        assert diamond == other

    def test_inequality(self, diamond, cycle10):
        assert diamond != cycle10

    def test_equality_non_graph(self, diamond):
        assert diamond != "not a graph"


class TestDegrees:
    def test_out_degree_scalar(self, diamond):
        assert diamond.out_degree(0) == 2
        assert diamond.out_degree(3) == 1

    def test_out_degree_vector(self, diamond):
        assert list(diamond.out_degree()) == [2, 1, 1, 1]

    def test_in_degree_scalar(self, diamond):
        assert diamond.in_degree(3) == 2
        assert diamond.in_degree(0) == 1

    def test_in_degree_vector(self, diamond):
        assert list(diamond.in_degree()) == [1, 1, 1, 2]

    def test_degree_sums_match_edge_count(self, small_twitter):
        assert int(np.sum(small_twitter.out_degree())) == small_twitter.num_edges
        assert int(np.sum(small_twitter.in_degree())) == small_twitter.num_edges

    def test_out_degree_vertex_out_of_range(self, diamond):
        with pytest.raises(GraphError, match="out of range"):
            diamond.out_degree(99)


class TestAdjacency:
    def test_successors(self, diamond):
        assert list(diamond.successors(0)) == [1, 2]

    def test_predecessors(self, diamond):
        assert sorted(diamond.predecessors(3).tolist()) == [1, 2]

    def test_has_edge(self, diamond):
        assert diamond.has_edge(0, 1)
        assert not diamond.has_edge(1, 0)

    def test_edges_iterator(self, diamond):
        assert sorted(diamond.edges()) == [
            (0, 1), (0, 2), (1, 3), (2, 3), (3, 0),
        ]

    def test_edge_sources_aligned_with_indices(self, small_twitter):
        src = small_twitter.edge_sources()
        assert src.shape == small_twitter.indices.shape
        # Every edge appears under its source's CSR slice.
        for v in (0, 10, 100):
            lo, hi = small_twitter.indptr[v], small_twitter.indptr[v + 1]
            assert np.all(src[lo:hi] == v)

    def test_edge_array_shape(self, diamond):
        arr = keys_to_edges(diamond.edge_keys(), diamond.num_vertices)
        assert arr.shape == (5, 2)

    def test_predecessors_inverse_of_successors(self, small_twitter):
        v = 7
        for u in small_twitter.successors(v):
            assert v in small_twitter.predecessors(int(u))


class TestDerived:
    def test_transition_matrix_column_stochastic(self, diamond):
        p = diamond.transition_matrix()
        np.testing.assert_allclose(p.sum(axis=0), np.ones(4))

    def test_transition_matrix_values(self, diamond):
        p = diamond.transition_matrix()
        assert p[1, 0] == pytest.approx(0.5)
        assert p[2, 0] == pytest.approx(0.5)
        assert p[0, 3] == pytest.approx(1.0)

    def test_transition_matrix_rejects_dangling(self):
        g = from_edges([(0, 1)], repair_dangling="none")
        with pytest.raises(GraphError, match="dangling"):
            g.transition_matrix()

    def test_reverse_flips_edges(self, diamond):
        rev = diamond.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert rev.num_edges == diamond.num_edges

    def test_double_reverse_identity(self, small_twitter):
        assert small_twitter.reverse().reverse() == small_twitter

    def test_subgraph_edges_keep_all(self, diamond):
        kept = diamond.subgraph_edges(np.ones(5, dtype=bool))
        assert kept == diamond

    def test_subgraph_edges_keep_none(self, diamond):
        kept = diamond.subgraph_edges(np.zeros(5, dtype=bool))
        assert kept.num_edges == 0
        assert kept.num_vertices == diamond.num_vertices

    def test_subgraph_edges_mask_shape_checked(self, diamond):
        with pytest.raises(GraphError, match="keep mask"):
            diamond.subgraph_edges(np.ones(3, dtype=bool))

    def test_dangling_vertices(self):
        g = from_edges([(0, 1), (1, 2)], repair_dangling="none")
        assert list(g.dangling_vertices()) == [2]

    def test_no_dangling_after_default_repair(self, small_twitter):
        assert small_twitter.dangling_vertices().size == 0
