"""Unit and behaviour tests for the FrogWild runner."""

import numpy as np
import pytest

from repro.core import FrogWildConfig, run_frogwild
from repro.engine import build_cluster
from repro.graph import complete_graph, cycle_graph, star_graph
from repro.metrics import normalized_mass_captured
from repro.pagerank import exact_pagerank


def _run(graph, machines=4, **kwargs):
    defaults = dict(num_frogs=4000, iterations=4, seed=7)
    defaults.update(kwargs)
    return run_frogwild(
        graph, FrogWildConfig(**defaults), num_machines=machines
    )


class TestConservation:
    def test_multinomial_conserves_frogs(self, small_twitter):
        result = _run(small_twitter, num_frogs=5000)
        assert result.estimate.total_stopped == 5000

    def test_conservation_under_partial_sync(self, small_twitter):
        for ps in (0.7, 0.3, 0.0):
            result = _run(small_twitter, ps=ps, num_frogs=3000)
            assert result.estimate.total_stopped == 3000

    def test_conservation_independent_erasures(self, small_twitter):
        result = _run(
            small_twitter, ps=0.2, erasure_model="independent", num_frogs=3000
        )
        assert result.estimate.total_stopped == 3000

    def test_binomial_mode_preserves_in_expectation(self, small_twitter):
        totals = [
            _run(
                small_twitter,
                scatter_mode="binomial",
                num_frogs=4000,
                seed=seed,
            ).estimate.total_stopped
            for seed in range(5)
        ]
        assert 0.7 * 4000 < np.mean(totals) < 1.4 * 4000


class TestAccuracy:
    def test_cycle_graph_uniform(self):
        graph = cycle_graph(50)
        result = _run(graph, num_frogs=20_000, iterations=6)
        # Uniform pi: every vertex ~ 1/50.
        assert result.estimate.distribution().max() < 3.0 / 50

    def test_complete_graph_uniform(self):
        graph = complete_graph(20)
        result = _run(graph, num_frogs=10_000)
        np.testing.assert_allclose(
            result.estimate.distribution(), 1 / 20, atol=0.02
        )

    def test_star_graph_finds_hub(self):
        graph = star_graph(30)
        result = _run(graph, num_frogs=5000)
        assert result.estimate.top_k(1)[0] == 0

    def test_mass_captured_high_on_powerlaw(self, small_twitter):
        truth = exact_pagerank(small_twitter)
        result = _run(small_twitter, num_frogs=10_000, iterations=5)
        mass = normalized_mass_captured(result.estimate.vector(), truth, 50)
        assert mass > 0.9

    def test_estimate_close_to_pi_in_l1(self, small_twitter):
        truth = exact_pagerank(small_twitter)
        result = _run(small_twitter, num_frogs=30_000, iterations=8)
        l1 = np.abs(result.estimate.distribution() - truth).sum()
        assert l1 < 0.5  # coarse: finite frogs + finite cut-off

    def test_binomial_mode_accuracy(self, small_twitter):
        truth = exact_pagerank(small_twitter)
        result = _run(
            small_twitter, scatter_mode="binomial", num_frogs=10_000,
            iterations=5,
        )
        mass = normalized_mass_captured(
            result.estimate.distribution(), truth, 50
        )
        assert mass > 0.85


class TestDeterminism:
    def test_same_seed_same_result(self, small_twitter):
        a = _run(small_twitter, seed=11)
        b = _run(small_twitter, seed=11)
        np.testing.assert_array_equal(a.estimate.counts, b.estimate.counts)
        assert a.report.network_bytes == b.report.network_bytes

    def test_different_seed_differs(self, small_twitter):
        a = _run(small_twitter, seed=11)
        b = _run(small_twitter, seed=12)
        assert not np.array_equal(a.estimate.counts, b.estimate.counts)


class TestTrafficBehaviour:
    def test_network_monotone_in_ps(self, small_twitter):
        nbytes = [
            _run(small_twitter, ps=ps, num_frogs=5000).report.network_bytes
            for ps in (1.0, 0.5, 0.1)
        ]
        assert nbytes[0] > nbytes[1] > nbytes[2]

    def test_network_grows_with_frogs(self, small_twitter):
        small = _run(small_twitter, num_frogs=1000).report.network_bytes
        big = _run(small_twitter, num_frogs=8000).report.network_bytes
        assert big > 2 * small

    def test_single_machine_no_network(self, small_twitter):
        result = _run(small_twitter, machines=1)
        assert result.report.network_bytes == 0

    def test_supersteps_equal_iterations(self, small_twitter):
        result = _run(small_twitter, iterations=6)
        assert result.report.supersteps == 6

    def test_report_extras(self, small_twitter):
        result = _run(small_twitter, ps=0.4)
        extra = result.report.extra
        assert extra["ps"] == pytest.approx(0.4)
        assert extra["num_frogs"] == 4000
        assert extra["replication_factor"] > 1.0


class TestPrebuiltState:
    def test_accepts_prebuilt_cluster(self, small_twitter):
        state = build_cluster(small_twitter, num_machines=3, seed=0)
        result = run_frogwild(
            small_twitter, FrogWildConfig(num_frogs=1000, seed=0), state=state
        )
        assert result.state is state
        assert result.report.num_machines == 3

    def test_reused_state_reports_each_run_alone(self, small_twitter):
        """A report covers its own run, not the state's whole history:
        identical runs on one state report identical costs."""
        state = build_cluster(small_twitter, num_machines=4, seed=0)
        config = FrogWildConfig(num_frogs=2000, ps=0.7, seed=0)
        first, second = (
            run_frogwild(small_twitter, config, state=state).report
            for _ in range(2)
        )
        assert first.network_bytes > 0
        assert second.network_bytes == first.network_bytes
        assert second.cpu_seconds == first.cpu_seconds
        assert second.supersteps == first.supersteps == config.iterations
        assert second.total_time_s == pytest.approx(first.total_time_s)

    def test_ps_zero_with_repair_still_moves(self, small_twitter):
        """ps=0: every scatter relies on the at-least-one repair."""
        result = _run(small_twitter, ps=0.0, num_frogs=2000)
        assert result.estimate.total_stopped == 2000
        # Frogs did move away from their uniform birth places: the top
        # counts concentrate above the uniform level.
        assert result.estimate.distribution().max() > 5.0 / small_twitter.num_vertices
