"""Lane-major fused batch kernel: equivalence, shared sync, wire dedupe.

Four families of guarantees pin the fused kernel down:

* **kernel behaviour** — stranded frogs on dangling vertices idle in
  every runnable tier, and unknown or retired tier names are rejected
  (the kernel's exact output is pinned by the golden digests of
  ``tests/test_superstep_digests.py``);
* **shared sync** (``sync_mode="shared"``) — one physical sync record
  per (vertex, mirror) per barrier *independent of B* (exact, proved on
  identical-frontier batches), per-lane attribution sums exactly to the
  physical count, and the bought correlation is quantified: cross-lane
  estimator correlation rises well above per-lane mode but stays far
  from 1 (the walks themselves must never be shared — cf. Lemma 18's
  pairwise-correlation argument, which the per-query variance story
  relies on);
* **wire dedupe** (``wire_dedupe=True``) — accounting-only: estimates
  are bit-identical with the flag on or off, physical frog records
  shrink to the cross-lane union, and largest-remainder attribution
  sums exactly to the physical count;
* **per-ingress caching** — kernel tables and the mirror bitmap build
  once per ingress, and fault injection (``disable_machine``) can never
  corrupt the shared cache.
"""

import numpy as np
import pytest

from repro.core import (
    BatchQuery,
    FrogWildConfig,
    run_frogwild_batch,
)
from repro.core.kernels import available_kernels
from repro.engine import MirrorSynchronizer, apportion_records, build_cluster
from repro.errors import ConfigError, EngineError
from repro.graph import twitter_like

GRAPH = twitter_like(n=600, seed=13)


def _run(queries, kernel="fused", machines=4, **config_kwargs):
    defaults = dict(num_frogs=1500, iterations=4, seed=7)
    defaults.update(config_kwargs)
    config = FrogWildConfig(**defaults)
    return run_frogwild_batch(
        GRAPH,
        queries,
        config,
        state=build_cluster(GRAPH, machines, seed=config.seed),
        kernel=kernel,
    )


class TestKernelEquivalence:
    """Tier behaviour; the golden digests pin the exact output."""

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_dangling_vertices_idle_instead_of_crashing(self, kernel):
        """A frog stranded on a dangling vertex (no out-groups) has
        nothing the at-least-one repair can enable: it must idle in
        place (conserving the population) instead of mis-indexing into
        a neighboring row's group block — in every kernel, matching
        the single-query runner."""
        from repro.core import run_frogwild
        from repro.graph import from_edges

        graph = from_edges(
            [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3), (4, 0),
             (0, 4), (4, 3)],
            repair_dangling="none",
        )
        config = FrogWildConfig(
            num_frogs=300, iterations=6, ps=0.2, seed=5
        )
        result = run_frogwild_batch(
            graph,
            [BatchQuery(seed=5 + s) for s in range(3)],
            config,
            state=build_cluster(graph, 3, seed=5),
            kernel=kernel,
        )
        for lane in result.results:
            assert lane.estimate.total_stopped == 300
        single = run_frogwild(
            graph, config, state=build_cluster(graph, 3, seed=5)
        )
        assert single.estimate.total_stopped == 300
        np.testing.assert_array_equal(
            single.estimate.counts, result.results[0].estimate.counts
        )

    def test_dangling_vertices_idle_in_shared_sync_mode(self):
        from repro.graph import from_edges

        graph = from_edges(
            [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3), (4, 0),
             (0, 4), (4, 3)],
            repair_dangling="none",
        )
        result = run_frogwild_batch(
            graph,
            [BatchQuery(seed=s) for s in range(3)],
            FrogWildConfig(
                num_frogs=300, iterations=6, ps=0.2, seed=5,
                sync_mode="shared", wire_dedupe=True,
            ),
            state=build_cluster(graph, 3, seed=5),
        )
        for lane in result.results:
            assert lane.estimate.total_stopped == 300

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError):
            _run([BatchQuery()], kernel="simd")

    def test_lane_loop_rejects_fused_only_modes(self):
        """The lane-loop tier is retired: it raises ConfigError naming
        the valid tiers in every mode, the fused-only ones included."""
        for modes in ({}, {"sync_mode": "shared"}, {"wire_dedupe": True}):
            with pytest.raises(ConfigError, match="'fused', 'compiled'"):
                _run([BatchQuery()], kernel="lane-loop", **modes)


class TestSharedSync:
    def test_one_record_per_vertex_mirror_independent_of_batch_size(self):
        """Identical-seed lanes walk identical frontiers, so the union
        frontier — and with it the physical sync and repair traffic —
        is *exactly* the B=1 frontier: shared mode must bill the same
        record totals at any batch size."""
        totals = {}
        for batch_size in (1, 4, 8):
            result = _run(
                [BatchQuery(seed=3) for _ in range(batch_size)],
                ps=0.7,
                sync_mode="shared",
            )
            extra = result.report.extra
            totals[batch_size] = (
                extra["sync_records"], extra["repair_records"]
            )
        assert totals[1] == totals[4] == totals[8]
        assert totals[1][0] > 0

    def test_shared_sync_cuts_physical_records_for_real_batches(self):
        queries = [BatchQuery(seed=s) for s in range(8)]
        per_lane = _run(queries, ps=0.7, sync_mode="per-lane")
        shared = _run(queries, ps=0.7, sync_mode="shared")
        assert (
            shared.report.extra["sync_records"]
            < per_lane.report.extra["sync_records"] / 2
        )
        # Frog traffic is untouched by the sync mode's record sharing
        # (walk randomness stays per-lane), so wire savings are sync-side.
        assert shared.report.network_bytes < per_lane.report.network_bytes

    def test_attribution_sums_to_physical_records(self):
        result = _run(
            [BatchQuery(seed=s) for s in range(5)],
            ps=0.6,
            sync_mode="shared",
        )
        attributed = sum(
            lane.ledger.network_records for lane in result.results
        )
        physical = sum(result.report.extra[key] for key in (
            "sync_records", "repair_records", "frog_records"
        ))
        assert attributed == physical
        # CPU attribution partitions the shared execution exactly too.
        total_cpu = sum(lane.report.cpu_seconds for lane in result.results)
        assert total_cpu == pytest.approx(
            result.report.cpu_seconds, abs=1e-12
        )

    def test_conservation_and_validity(self):
        result = _run(
            [BatchQuery(seed=s) for s in range(4)],
            ps=0.4,
            sync_mode="shared",
        )
        for lane in result.results:
            assert lane.estimate.total_stopped == 1500
            vector = lane.estimate.vector()
            assert vector.min() >= 0.0
            assert vector.sum() <= 1.0 + 1e-12

    def test_per_query_ps_override_rejected(self):
        with pytest.raises(ConfigError):
            _run(
                [BatchQuery(seed=1), BatchQuery(seed=2, ps=0.3)],
                ps=0.7,
                sync_mode="shared",
            )

    def test_correlation_bound(self):
        """Quantify the correlation shared sync buys (cf. Lemma 18).

        Sharing the sync coins correlates the populations' *erasure*
        processes, so their estimator errors co-fluctuate: cross-lane
        error correlation must rise clearly above per-lane mode.  It
        must also stay far from 1 — the hop randomness is still
        per-lane, and a kernel bug that shared it would push the
        correlation toward identity.  Marginals stay untouched: the
        per-mode mean estimates agree closely.
        """
        graph = twitter_like(n=400, seed=3)
        reps = 20

        def estimates(mode):
            rows = []
            for rep in range(reps):
                config = FrogWildConfig(
                    num_frogs=1200,
                    iterations=3,
                    ps=0.25,
                    seed=3000 + rep,
                    sync_mode=mode,
                )
                result = run_frogwild_batch(
                    graph,
                    [BatchQuery(seed=1000 + rep), BatchQuery(seed=2000 + rep)],
                    config,
                    state=build_cluster(graph, 4, seed=0),
                )
                rows.append(
                    [lane.estimate.vector() for lane in result.results]
                )
            return np.array(rows)

        def mean_cross_lane_correlation(stack):
            errors = stack - stack.mean(axis=0, keepdims=True)
            correlations = []
            for rep in range(reps):
                left, right = errors[rep, 0], errors[rep, 1]
                denom = np.linalg.norm(left) * np.linalg.norm(right)
                correlations.append(
                    float(left @ right / denom) if denom else 0.0
                )
            return float(np.mean(correlations))

        per_lane = estimates("per-lane")
        shared = estimates("shared")
        corr_per_lane = mean_cross_lane_correlation(per_lane)
        corr_shared = mean_cross_lane_correlation(shared)
        assert corr_shared > corr_per_lane + 0.15
        assert corr_shared < 0.8
        assert abs(corr_per_lane) < 0.2
        mean_gap = np.abs(
            per_lane.mean(axis=(0, 1)) - shared.mean(axis=(0, 1))
        ).sum()
        assert mean_gap < 0.2


class TestWireDedupe:
    def test_accounting_only_estimates_bit_identical(self):
        queries = [BatchQuery(seed=s) for s in range(6)]
        plain = _run(queries, ps=0.8)
        deduped = _run(queries, ps=0.8, wire_dedupe=True)
        for lane_plain, lane_deduped in zip(plain.results, deduped.results):
            np.testing.assert_array_equal(
                lane_plain.estimate.counts, lane_deduped.estimate.counts
            )
        assert (
            deduped.report.extra["frog_records"]
            < plain.report.extra["frog_records"]
        )
        assert deduped.report.network_bytes < plain.report.network_bytes

    def test_identical_lanes_collapse_to_single_lane_records(self):
        single = _run([BatchQuery(seed=3)], ps=0.9, wire_dedupe=True)
        batch = _run(
            [BatchQuery(seed=3) for _ in range(8)], ps=0.9, wire_dedupe=True
        )
        assert (
            batch.report.extra["frog_records"]
            == single.report.extra["frog_records"]
        )

    @pytest.mark.parametrize("seed", [0, 11, 23])
    @pytest.mark.parametrize("scatter_mode", ["multinomial", "binomial"])
    def test_attribution_sums_to_physical(self, seed, scatter_mode):
        result = _run(
            [BatchQuery(seed=seed + lane) for lane in range(5)],
            seed=seed,
            ps=0.8,
            scatter_mode=scatter_mode,
            wire_dedupe=True,
        )
        attributed = sum(
            lane.ledger.network_records for lane in result.results
        )
        physical = sum(result.report.extra[key] for key in (
            "sync_records", "repair_records", "frog_records"
        ))
        assert attributed == physical
        assert result.report.network_bytes <= (
            result.attributed_network_bytes()
        )

    def test_combines_with_shared_sync(self):
        result = _run(
            [BatchQuery(seed=s) for s in range(4)],
            ps=0.7,
            sync_mode="shared",
            wire_dedupe=True,
        )
        attributed = sum(
            lane.ledger.network_records for lane in result.results
        )
        physical = sum(result.report.extra[key] for key in (
            "sync_records", "repair_records", "frog_records"
        ))
        assert attributed == physical
        for lane in result.results:
            assert lane.estimate.total_stopped == 1500


class TestIngressCaching:
    def test_kernel_tables_built_once_per_ingress(self):
        state = build_cluster(GRAPH, 4, seed=0)
        builds = []
        first = state.ingress_cache("probe", lambda: builds.append(1) or "x")
        second = state.ingress_cache("probe", lambda: builds.append(1) or "y")
        assert first == second == "x"
        assert builds == [1]
        # A fresh accounting state over the same ingress shares the memo.
        sibling = build_cluster(
            GRAPH, 4, seed=0, replication=state.replication
        )
        assert sibling.ingress_cache("probe", lambda: "z") == "x"

    def test_batched_runs_share_kernel_tables(self):
        from repro.core.batched import BatchedFrogWildRunner

        state = build_cluster(GRAPH, 4, seed=0)
        config = FrogWildConfig(num_frogs=200, iterations=2, seed=1)
        runner_a = BatchedFrogWildRunner(state, config, [BatchQuery()])
        sibling = build_cluster(
            GRAPH, 4, seed=0, replication=state.replication
        )
        runner_b = BatchedFrogWildRunner(sibling, config, [BatchQuery()])
        assert runner_a.tables is runner_b.tables

    def test_disable_machine_never_corrupts_shared_mirror_cache(self):
        state = build_cluster(GRAPH, 4, seed=0)
        shared = MirrorSynchronizer.shared_mirror_matrix(state)
        baseline = shared.copy()
        sync = MirrorSynchronizer(
            state,
            1.0,
            np.random.default_rng(0),
            mirror_matrix=shared,
            copy_on_disable=True,
        )
        sync.disable_machine(2)
        np.testing.assert_array_equal(
            MirrorSynchronizer.shared_mirror_matrix(state), baseline
        )
        # The disabling synchronizer itself sees the crash.
        vertices = np.arange(10)
        fresh, _ = sync.draw_fresh(vertices)
        assert not fresh[:, 2][
            state.replication.masters[vertices] != 2
        ].any()


class TestApportionRecords:
    def test_exact_sum_and_proportionality(self):
        physical = np.array([[0, 10], [3, 0]])
        demand = np.array(
            [
                [[0, 6], [1, 0]],
                [[0, 3], [1, 0]],
                [[0, 3], [1, 0]],
            ]
        )
        shares = apportion_records(physical, demand)
        np.testing.assert_array_equal(shares.sum(axis=0), physical)
        assert (shares <= demand).all()
        assert shares[0, 0, 1] == 5  # 10 * 6/12

    def test_deterministic_tie_break_prefers_lower_lane(self):
        physical = np.array([1])
        demand = np.array([[1], [1]])
        shares = apportion_records(physical, demand)
        np.testing.assert_array_equal(shares, [[1], [0]])

    def test_rejects_unbacked_physical_records(self):
        with pytest.raises(EngineError):
            apportion_records(np.array([2]), np.array([[0], [0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(EngineError):
            apportion_records(np.array([1, 2]), np.array([[1], [1]]))
