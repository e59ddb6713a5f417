"""Property and regression tests for the batched FrogWild kernel.

Three families of guarantees pin the kernel down:

* **invariants** (property-based, via hypothesis): frog conservation in
  multinomial scatter mode, non-negative estimates summing to at most 1,
  per-population cost attribution summing exactly to the shared totals;
* **B=1 equivalence**: a single-query batch is bit-identical — estimate
  *and* report numerics — to :func:`repro.core.run_frogwild` under the
  same seed, so the single-query facade reports exactly what its one
  lane of the batched kernel computed;
* **behaviour**: config-mixing rules, early termination, amortization.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchQuery,
    FrogWildConfig,
    run_frogwild,
    run_frogwild_batch,
    run_personalized_frogwild,
    run_personalized_frogwild_batch,
)
from repro.engine import build_cluster
from repro.errors import ConfigError, EngineError
from repro.graph import twitter_like

GRAPH = twitter_like(n=600, seed=13)


def _batch(queries, machines=4, **config_kwargs):
    defaults = dict(num_frogs=1500, iterations=4, seed=7)
    defaults.update(config_kwargs)
    return run_frogwild_batch(
        GRAPH, queries, FrogWildConfig(**defaults), num_machines=machines
    )


class TestInvariants:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        ps=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        batch_size=st.integers(1, 5),
        num_frogs=st.integers(1, 3_000),
        iterations=st.integers(1, 6),
    )
    def test_multinomial_conserves_frogs(
        self, seed, ps, batch_size, num_frogs, iterations
    ):
        """Total stopped frogs equal the launched budget, per population."""
        queries = [BatchQuery(seed=seed + lane) for lane in range(batch_size)]
        result = _batch(
            queries,
            seed=seed,
            ps=ps,
            num_frogs=num_frogs,
            iterations=iterations,
        )
        for lane in result.results:
            assert lane.estimate.total_stopped == num_frogs

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        ps=st.sampled_from([0.1, 0.6, 1.0]),
        batch_size=st.integers(1, 4),
    )
    def test_estimates_are_distributions(self, seed, ps, batch_size):
        """Estimates are non-negative and sum to at most 1."""
        queries = [BatchQuery(seed=seed + lane) for lane in range(batch_size)]
        result = _batch(queries, seed=seed, ps=ps)
        for lane in result.results:
            vector = lane.estimate.vector()
            assert vector.min() >= 0.0
            assert vector.sum() <= 1.0 + 1e-12

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        batch_size=st.integers(2, 5),
        erasure=st.sampled_from(["at-least-one", "independent"]),
    )
    def test_cost_attribution_sums_to_shared_totals(
        self, seed, batch_size, erasure
    ):
        """Per-population CPU attribution is an exact partition of the
        shared execution's total; attributed bytes dominate shared bytes
        (headers amortize, records never vanish)."""
        queries = [
            BatchQuery(seed=seed + lane, ps=(0.3 + 0.15 * lane))
            for lane in range(batch_size)
        ]
        result = _batch(queries, seed=seed, ps=0.7, erasure_model=erasure)
        total_cpu = sum(lane.report.cpu_seconds for lane in result.results)
        assert total_cpu == pytest.approx(result.report.cpu_seconds, abs=1e-12)
        assert result.attributed_network_bytes() >= result.report.network_bytes
        assert 0.0 < result.amortization_ratio() <= 1.0

    def test_conservation_under_mixed_ps_and_budgets(self):
        queries = [
            BatchQuery(num_frogs=500, ps=0.0),
            BatchQuery(num_frogs=2000, ps=1.0),
            BatchQuery(num_frogs=1250, ps=0.4, seed=99),
        ]
        result = _batch(queries)
        for query, lane in zip(queries, result.results):
            assert lane.estimate.total_stopped == query.num_frogs
            assert lane.estimate.num_frogs == query.num_frogs

    def test_binomial_mode_runs_and_stays_nonnegative(self):
        result = _batch(
            [BatchQuery(seed=s) for s in (1, 2)],
            scatter_mode="binomial",
            ps=0.8,
        )
        for lane in result.results:
            assert lane.estimate.counts.min() >= 0


class TestSingleQueryEquivalence:
    """B=1 batches replay the single-query facade bit for bit."""

    CONFIGS = [
        dict(num_frogs=2000, iterations=4, seed=7),
        dict(num_frogs=1500, iterations=5, seed=3, ps=0.6),
        dict(num_frogs=1000, iterations=4, seed=9, ps=0.3,
             erasure_model="independent"),
        dict(num_frogs=1200, iterations=4, seed=11, scatter_mode="binomial",
             ps=0.8),
        dict(num_frogs=1200, iterations=6, seed=5, ps=0.0),
    ]

    @pytest.mark.parametrize("config_kwargs", CONFIGS)
    def test_bitwise_identical_estimate_and_report(self, config_kwargs):
        config = FrogWildConfig(**config_kwargs)
        single = run_frogwild(
            GRAPH, config, state=build_cluster(GRAPH, 4, seed=config.seed)
        )
        batched = run_frogwild_batch(
            GRAPH,
            [BatchQuery()],
            config,
            state=build_cluster(GRAPH, 4, seed=config.seed),
        )
        lane = batched.results[0]
        np.testing.assert_array_equal(
            single.estimate.counts, lane.estimate.counts
        )
        assert single.report.network_bytes == lane.report.network_bytes
        assert single.report.cpu_seconds == lane.report.cpu_seconds
        assert single.report.supersteps == lane.report.supersteps
        assert single.report.total_time_s == lane.report.total_time_s
        # The batch-level (physical) report agrees too: with one lane
        # there is nothing to amortize.
        assert batched.report.network_bytes == single.report.network_bytes

    def test_personalized_single_query_equivalence(self):
        seeds = np.array([3, 77, 140])
        config = FrogWildConfig(num_frogs=1500, iterations=6, seed=2, ps=0.7)
        single = run_personalized_frogwild(
            GRAPH, seeds, config, num_machines=4
        )
        batched = run_personalized_frogwild_batch(
            GRAPH, [seeds], config, num_machines=4
        )
        np.testing.assert_array_equal(
            single.estimate.counts, batched.results[0].estimate.counts
        )
        assert (
            single.report.network_bytes
            == batched.results[0].report.network_bytes
        )

    def test_lane_matches_sequential_run_inside_larger_batch(self):
        """Populations are independent: each lane of a B=3 batch equals
        the standalone run with the same seed and birth law."""
        config = FrogWildConfig(num_frogs=1000, iterations=4, seed=0, ps=0.8)
        seeds = [4, 5, 6]
        batched = run_frogwild_batch(
            GRAPH,
            [BatchQuery(seed=s) for s in seeds],
            config,
            state=build_cluster(GRAPH, 4, seed=config.seed),
        )
        for lane_seed, lane in zip(seeds, batched.results):
            single = run_frogwild(
                GRAPH,
                config.with_updates(seed=lane_seed),
                state=build_cluster(GRAPH, 4, seed=config.seed),
            )
            np.testing.assert_array_equal(
                single.estimate.counts, lane.estimate.counts
            )


class TestBehaviour:
    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigError):
            _batch([])

    def test_bad_distribution_rejected(self):
        with pytest.raises(EngineError):
            _batch([BatchQuery(start_distribution=np.ones(3))])
        bad = np.zeros(GRAPH.num_vertices)
        bad[0] = 2.0
        with pytest.raises(EngineError):
            _batch([BatchQuery(start_distribution=bad)])

    def test_bad_ps_rejected(self):
        with pytest.raises(ConfigError):
            _batch([BatchQuery(ps=1.5)])

    def test_early_termination_bounds_lane_supersteps(self):
        """With a tiny budget and many iterations, populations die out;
        their reports stop counting supersteps once they are gone."""
        result = _batch(
            [BatchQuery(num_frogs=2, seed=s) for s in range(4)],
            iterations=60,
        )
        for lane in result.results:
            assert lane.estimate.total_stopped == 2
            assert lane.report.supersteps <= 60
        assert result.report.supersteps == max(
            lane.report.supersteps for lane in result.results
        )

    def test_early_finished_lane_stops_accumulating_time(self):
        """A population that dies out is not billed the batch's
        remaining supersteps: its attributed simulated time stops at
        its last live barrier."""
        result = _batch(
            [BatchQuery(num_frogs=1), BatchQuery(num_frogs=3000)],
            iterations=60,
        )
        small, big = result.results
        assert small.report.supersteps < big.report.supersteps
        assert small.report.total_time_s < big.report.total_time_s
        assert big.report.total_time_s == pytest.approx(
            result.report.total_time_s
        )

    def test_batch_report_carries_batch_extras(self):
        result = _batch([BatchQuery(seed=s) for s in range(3)])
        assert result.report.extra["batch_size"] == 3.0
        assert result.report.extra["total_frogs"] == 3 * 1500.0
        for index, lane in enumerate(result.results):
            assert lane.report.extra["batch_index"] == float(index)
            assert lane.report.extra["batch_size"] == 3.0

    def test_shared_traversal_amortizes_headers(self):
        """A real B>1 batch moves fewer wire bytes than its populations
        would standalone (same records, shared message headers)."""
        result = _batch([BatchQuery(seed=s) for s in range(6)], machines=8)
        assert result.report.network_bytes < result.attributed_network_bytes()

    def test_personalized_batch_results_in_query_order(self):
        seed_sets = [np.array([1]), np.array([2, 3]), np.array([4, 5, 6])]
        result = run_personalized_frogwild_batch(
            GRAPH,
            seed_sets,
            FrogWildConfig(num_frogs=1500, iterations=6, seed=1),
            num_machines=4,
        )
        assert len(result) == 3
        # Frogs are born on the query's seeds, so early mass concentrates
        # near them: each query's top-1 differs and is reachable.
        tops = [lane.estimate.top_k(1)[0] for lane in result.results]
        assert len(set(map(int, tops))) >= 2

    def test_personalized_batch_validates_weights(self):
        with pytest.raises(ConfigError):
            run_personalized_frogwild_batch(
                GRAPH,
                [np.array([1]), np.array([2])],
                weights=[np.array([1.0])],
            )
