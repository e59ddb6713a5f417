"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.store import keys_to_edges
from repro.graph import (
    chung_lu,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    livejournal_like,
    power_law_exponent,
    preferential_attachment,
    reciprocity,
    star_graph,
    twitter_like,
)


class TestFixtures:
    def test_cycle_structure(self):
        g = cycle_graph(5)
        assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]

    def test_cycle_rejects_tiny(self):
        with pytest.raises(GraphError):
            cycle_graph(1)

    def test_star_structure(self):
        g = star_graph(4)
        assert g.out_degree(0) == 3
        assert g.in_degree(0) == 3
        for spoke in (1, 2, 3):
            assert g.has_edge(0, spoke)
            assert g.has_edge(spoke, 0)

    def test_star_rejects_tiny(self):
        with pytest.raises(GraphError):
            star_graph(1)

    def test_complete_edge_count(self):
        g = complete_graph(6)
        assert g.num_edges == 30
        assert not g.has_edge(0, 0)

    def test_complete_rejects_tiny(self):
        with pytest.raises(GraphError):
            complete_graph(1)


class TestErdosRenyi:
    def test_size_and_degree(self):
        g = erdos_renyi(500, avg_out_degree=6, seed=0)
        assert g.num_vertices == 500
        mean_deg = g.num_edges / g.num_vertices
        assert 4 < mean_deg < 8

    def test_deterministic(self):
        assert erdos_renyi(100, 4, seed=3) == erdos_renyi(100, 4, seed=3)

    def test_different_seeds_differ(self):
        assert erdos_renyi(100, 4, seed=3) != erdos_renyi(100, 4, seed=4)

    def test_rejects_bad_degree(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, avg_out_degree=0)
        with pytest.raises(GraphError):
            erdos_renyi(10, avg_out_degree=100)

    def test_no_dangling(self):
        g = erdos_renyi(200, 2, seed=1)
        assert g.dangling_vertices().size == 0


class TestChungLu:
    def test_in_degree_heavy_tail(self):
        g = chung_lu(3000, exponent=2.2, avg_degree=8, seed=0)
        in_deg = np.asarray(g.in_degree())
        # Hubs exist: the max in-degree dwarfs the mean.
        assert in_deg.max() > 15 * in_deg.mean()

    def test_tail_exponent_ballpark(self):
        g = chung_lu(8000, exponent=2.2, avg_degree=10, seed=1)
        theta = power_law_exponent(np.asarray(g.in_degree()))
        assert 1.6 < theta < 3.2

    def test_rejects_flat_exponent(self):
        with pytest.raises(GraphError):
            chung_lu(100, exponent=1.0)


class TestPreferentialAttachment:
    def test_vertex_count(self):
        g = preferential_attachment(400, out_degree=5, seed=0)
        assert g.num_vertices == 400

    def test_reciprocity_knob(self):
        low = preferential_attachment(800, 6, reciprocity=0.0, seed=0)
        high = preferential_attachment(800, 6, reciprocity=0.9, seed=0)
        assert reciprocity(high) > reciprocity(low) + 0.2

    def test_heavy_out_degree_tail_when_enabled(self):
        fixed = preferential_attachment(1500, 8, seed=0)
        heavy = preferential_attachment(
            1500, 8, out_degree_exponent=2.2, seed=0
        )
        fixed_max = int(np.max(fixed.out_degree()))
        heavy_max = int(np.max(heavy.out_degree()))
        assert heavy_max > 2 * fixed_max

    def test_rejects_bad_params(self):
        with pytest.raises(GraphError):
            preferential_attachment(10, out_degree=0)
        with pytest.raises(GraphError):
            preferential_attachment(10, 2, reciprocity=1.5)
        with pytest.raises(GraphError):
            preferential_attachment(10, 2, attachment_bias=0.0)
        with pytest.raises(GraphError):
            preferential_attachment(10, 2, out_degree_exponent=1.5)

    def test_deterministic(self):
        a = preferential_attachment(300, 4, seed=9)
        b = preferential_attachment(300, 4, seed=9)
        assert a == b


class TestWorkloadGenerators:
    def test_twitter_like_skewed(self):
        g = twitter_like(n=2000, seed=5)
        in_deg = np.asarray(g.in_degree())
        assert in_deg.max() > 20 * in_deg.mean()
        assert g.dangling_vertices().size == 0

    def test_livejournal_more_reciprocal_than_twitter(self):
        tw = twitter_like(n=1500, seed=2)
        lj = livejournal_like(n=1500, seed=2)
        assert reciprocity(lj) > reciprocity(tw) + 0.2

    def test_default_sizes(self):
        assert twitter_like(n=500).num_vertices == 500
        assert livejournal_like(n=500).num_vertices == 500


class TestRmat:
    def test_vertex_count_is_power_of_two(self):
        from repro.graph import rmat

        g = rmat(scale=8, edge_factor=4, seed=0)
        assert g.num_vertices == 256
        assert g.num_edges > 0

    def test_edge_count_bounded_by_draws(self):
        from repro.graph import rmat

        g = rmat(scale=9, edge_factor=8, seed=1)
        # Dedup and self-loop removal only ever shrink the draw count.
        assert g.num_edges <= 8 * 512

    def test_skewed_degrees(self):
        from repro.graph import rmat

        g = rmat(scale=11, edge_factor=8, seed=2)
        in_deg = np.asarray(g.in_degree())
        assert in_deg.max() > 10 * in_deg.mean()

    def test_uniform_quadrants_give_flat_degrees(self):
        from repro.graph import rmat

        g = rmat(scale=10, edge_factor=8, a=0.25, b=0.25, c=0.25,
                 noise=0.0, seed=3)
        in_deg = np.asarray(g.in_degree())
        # Without skew the max degree stays near the mean.
        assert in_deg.max() < 5 * in_deg.mean()

    def test_no_self_loops_except_repair(self):
        from repro.graph import rmat

        g = rmat(scale=8, edge_factor=4, seed=4)
        edges = keys_to_edges(g.edge_keys(), g.num_vertices)
        loops = edges[edges[:, 0] == edges[:, 1]]
        # Any surviving self loop is a dangling repair.
        for v in loops[:, 0]:
            assert g.out_degree(int(v)) == 1

    def test_deterministic(self):
        from repro.graph import rmat

        assert rmat(scale=8, seed=9) == rmat(scale=8, seed=9)

    def test_validation(self):
        from repro.graph import rmat

        with pytest.raises(GraphError):
            rmat(scale=0)
        with pytest.raises(GraphError):
            rmat(scale=8, edge_factor=0)
        with pytest.raises(GraphError):
            rmat(scale=8, a=0.9, b=0.2, c=0.2)
        with pytest.raises(GraphError):
            rmat(scale=8, noise=1.0)

    def test_frogwild_runs_on_rmat(self):
        from repro.core import FrogWildConfig, run_frogwild
        from repro.graph import rmat
        from repro.metrics import normalized_mass_captured
        from repro.pagerank import exact_pagerank

        g = rmat(scale=10, edge_factor=8, seed=5)
        result = run_frogwild(
            g,
            FrogWildConfig(num_frogs=8_000, iterations=4, seed=0),
            num_machines=4,
        )
        truth = exact_pagerank(g)
        mass = normalized_mass_captured(result.estimate.vector(), truth, 20)
        assert mass > 0.85
