"""Multi-process execution backend: equivalence, transport, lifecycle.

:class:`ProcessPoolBackend` inherits its shard layout, replication
tables and per-shard seeding from :class:`ShardedBackend`, so its
results must be *bitwise* identical to the in-process sharded backend —
not merely statistically close.  These tests pin down:

* bitwise agreement with :class:`ShardedBackend` on counters, reports
  and per-shard cost attribution, and golden-tolerance agreement with
  :class:`LocalBackend` / exact PageRank at the thresholds of
  ``test_sharded_service``;
* byte-exact reconciliation of the *measured* record transport against
  the simulated :class:`MessageSizeModel` pricing, across batches and
  epoch refreshes;
* the shared-memory plumbing in isolation (arena roundtrip, wire codec,
  CSR / replication-table component serialization);
* the epoch-remap handshake and the close lifecycle;
* collect latency: a B=64 batch whose lane frames overflow the pipe
  buffer is read as fast as the workers write it.
"""

import time

import numpy as np
import pytest

from repro.core import FrogWildConfig, seed_distribution
from repro.cluster import (
    MessageSizeModel,
    ReplicationTable,
    SharedArena,
    TransportTally,
    WireCodec,
)
from repro.errors import ConfigError, EngineError
from repro.graph import twitter_like
from repro.pagerank import exact_pagerank
from repro.serving import (
    LocalBackend,
    ProcessPoolBackend,
    RankingQuery,
    RankingService,
    ShardedBackend,
)

GRAPH = twitter_like(n=1000, seed=21)  # the golden regression graph
CONFIG = FrogWildConfig(num_frogs=12_000, iterations=6, seed=1, ps=0.8)
SEED_SETS = [np.array([7]), np.array([11, 42])]
QUERIES = [
    RankingQuery(seeds=tuple(seeds.tolist()), k=10) for seeds in SEED_SETS
]

SMALL = twitter_like(n=400, seed=3)
FAST = FrogWildConfig(num_frogs=2_000, iterations=4, seed=5)


def _overlap(estimated: np.ndarray, ranking: np.ndarray, k: int) -> float:
    exact_top = set(np.argsort(-ranking)[:k].tolist())
    return len(set(estimated.tolist()) & exact_top) / k


# ----------------------------------------------------------------------
# Shared-memory plumbing (single-process, no workers)
# ----------------------------------------------------------------------
class TestSharedArena:
    def test_roundtrip_and_readonly_attach(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.ones((3, 4), dtype=np.float64) * 2.5,
        }
        arena = SharedArena.create(arrays, epoch=1)
        try:
            attached = SharedArena.attach(arena.spec)
            try:
                for key, expected in arrays.items():
                    view = attached.arrays[key]
                    np.testing.assert_array_equal(view, expected)
                    assert not view.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    attached.arrays["a"][0] = 99
            finally:
                attached.close()
        finally:
            arena.destroy()

    def test_spec_is_epoch_tagged(self):
        arena = SharedArena.create({"x": np.zeros(4)}, epoch=7)
        try:
            assert arena.spec.epoch == 7
        finally:
            arena.destroy()


class TestWireCodec:
    def test_encode_matches_size_model_and_decodes(self):
        model = MessageSizeModel()
        codec = WireCodec(model)
        vertices = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        payloads = np.array([9, 2, 6, 5, 3], dtype=np.int64)
        frame = codec.encode("result", vertices, payloads, tag=11)
        assert len(frame) == model.batch_bytes(len(vertices))
        kind, tag, out_vertices, out_payloads = codec.decode(frame)
        assert kind == "result" and tag == 11
        np.testing.assert_array_equal(out_vertices, vertices)
        np.testing.assert_array_equal(out_payloads, payloads)

    def test_tally_reconciles_by_construction(self):
        model = MessageSizeModel()
        tally = TransportTally()
        tally.add("result", 5, model.batch_bytes(5), model.batch_bytes(5))
        # An empty frame carries a real header the model prices at zero.
        tally.add("result", 0, model.message_header_bytes, 0)
        assert tally.reconciles(model)
        assert tally.empty_frames == 1
        merged = TransportTally()
        merged.merge(tally)
        assert merged.reconciles(model)
        assert merged.records == 5 and merged.messages == 2


class TestSharedComponents:
    def test_graph_csr_roundtrip(self):
        arrays = SMALL.csr_components()
        rebuilt = type(SMALL).from_csr_arrays(arrays)
        assert rebuilt.num_vertices == SMALL.num_vertices
        assert rebuilt.num_edges == SMALL.num_edges
        np.testing.assert_array_equal(
            rebuilt.successors(17), SMALL.successors(17)
        )

    def test_replication_table_component_roundtrip(self):
        table = ShardedBackend(
            SMALL, num_shards=1, num_machines=4, seed=0
        ).replications[0]
        components = table.shared_components()
        rebuilt = ReplicationTable.from_shared_components(SMALL, components)
        np.testing.assert_array_equal(rebuilt.masters, table.masters)
        np.testing.assert_array_equal(
            rebuilt.replica_matrix, table.replica_matrix
        )


# ----------------------------------------------------------------------
# End-to-end worker execution
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def outcomes():
    local = LocalBackend(GRAPH, num_machines=8, seed=0)
    sharded = ShardedBackend(GRAPH, num_shards=2, num_machines=8, seed=0)
    process = ProcessPoolBackend(GRAPH, num_shards=2, num_machines=8, seed=0)
    try:
        yield (
            local.run_batch(CONFIG, QUERIES),
            sharded.run_batch(CONFIG, QUERIES),
            process.run_batch(CONFIG, QUERIES),
            process,
        )
    finally:
        process.close()


class TestProcessEquivalence:
    def test_bitwise_identical_to_sharded_backend(self, outcomes):
        """Same tables, same shares, same per-shard seeds ⇒ the worker
        processes must reproduce the in-process sharded merge exactly."""
        _, sharded, process, _ = outcomes
        for sharded_lane, process_lane in zip(sharded.lanes, process.lanes):
            np.testing.assert_array_equal(
                process_lane.estimate.counts, sharded_lane.estimate.counts
            )
            assert (
                process_lane.estimate.num_frogs
                == sharded_lane.estimate.num_frogs
            )
            assert (
                process_lane.report.network_bytes
                == sharded_lane.report.network_bytes
            )
        assert (
            process.shared_network_bytes == sharded.shared_network_bytes
        )
        assert process.simulated_time_s == sharded.simulated_time_s
        for shard_cost, expected in zip(process.shards, sharded.shards):
            assert (
                shard_cost.attributed_network_bytes
                == expected.attributed_network_bytes
            )

    def test_golden_topk_within_established_tolerance(self, outcomes):
        """Process top-k agrees with LocalBackend and exact PPR at the
        ``test_sharded_service`` thresholds."""
        local, _, process, _ = outcomes
        for seeds, local_lane, process_lane in zip(
            SEED_SETS, local.lanes, process.lanes
        ):
            personalization = seed_distribution(GRAPH.num_vertices, seeds)
            truth = exact_pagerank(GRAPH, personalization=personalization)
            top = process_lane.estimate.top_k(10)
            assert _overlap(top, truth, 10) >= 0.6
            assert (
                _overlap(top, local_lane.estimate.vector(), 10) >= 0.6
            )

    def test_full_budget_spent(self, outcomes):
        _, _, process, _ = outcomes
        for lane in process.lanes:
            assert lane.estimate.num_frogs == CONFIG.num_frogs


class TestTransportReconciliation:
    def test_measured_bytes_reconcile_with_size_model(self, outcomes):
        """Every byte the workers physically framed must price out to
        the simulated model's batch_bytes of the same record traffic."""
        _, _, _, backend = outcomes
        summary = backend.transport_summary()
        assert summary["reconciles"] == 1.0
        assert summary["sent_measured_bytes"] > 0
        assert (
            summary["sent_measured_bytes"]
            == summary["received_measured_bytes"]
        )
        assert summary["sent_records"] == summary["received_records"]

    def test_reconciliation_survives_repeated_batches(self):
        with ProcessPoolBackend(
            SMALL, num_shards=2, num_machines=4, seed=0
        ) as backend:
            reference = ShardedBackend(
                SMALL, num_shards=2, num_machines=4, seed=0
            )
            query = [RankingQuery(seeds=(5,), k=10)]
            expected = reference.run_batch(FAST, query)
            for _ in range(3):
                outcome = backend.run_batch(FAST, query)
                np.testing.assert_array_equal(
                    outcome.lanes[0].estimate.counts,
                    expected.lanes[0].estimate.counts,
                )
                assert backend.transport_summary()["reconciles"] == 1.0


class TestCollectLatency:
    def test_b64_batch_overflowing_the_pipe_does_not_stall(self):
        """A batch whose lane frames overflow the OS pipe buffer must be
        collected as fast as the worker writes them.

        A collect loop that sleeps on an idle pipe between frames pays
        that sleep for nearly every frame once the worker blocks on a
        full pipe — at 50 ms a frame, seconds per shard for B=64.
        """
        graph = twitter_like(n=2000, seed=3)
        config = FrogWildConfig(num_frogs=2_400, iterations=3, seed=5)
        rng = np.random.default_rng(0)
        queries = [
            RankingQuery(
                seeds=tuple(
                    np.sort(rng.choice(2000, 20, replace=False)).tolist()
                ),
                k=10,
            )
            for _ in range(64)
        ]
        expected = ShardedBackend(
            graph, num_shards=2, num_machines=8, seed=0
        ).run_batch(config, queries)
        with ProcessPoolBackend(
            graph, num_shards=2, num_machines=8, seed=0
        ) as backend:
            backend.run_batch(config, queries[:1])  # warm-up
            before = backend.transport_summary()["received_measured_bytes"]
            start = time.perf_counter()
            outcome = backend.run_batch(config, queries)
            elapsed = time.perf_counter() - start
            summary = backend.transport_summary()
        # Shares are equal, so each shard framed about half the bytes:
        # far more than a 64 KiB pipe buffer holds.
        per_shard = (summary["received_measured_bytes"] - before) / 2
        assert per_shard > 256 * 1024, per_shard
        assert summary["reconciles"] == 1.0
        for got, want in zip(outcome.lanes, expected.lanes):
            np.testing.assert_array_equal(
                got.estimate.counts, want.estimate.counts
            )
        assert elapsed < 1.0, f"B=64 batch took {elapsed:.2f}s"


class TestRefreshLifecycle:
    def test_refresh_remaps_onto_new_snapshot(self):
        """After an epoch refresh the workers serve the *new* graph's
        tables, bitwise-matching a sharded backend built fresh on it."""
        new_graph = twitter_like(n=400, seed=8)
        reference = ShardedBackend(
            new_graph, num_shards=2, num_machines=4, seed=0
        )
        query = [RankingQuery(seeds=(9,), k=10)]
        with ProcessPoolBackend(
            SMALL, num_shards=2, num_machines=4, seed=0
        ) as backend:
            backend.run_batch(FAST, query)
            backend.refresh(new_graph, reference.replications)
            outcome = backend.run_batch(FAST, query)
            expected = reference.run_batch(FAST, query)
            np.testing.assert_array_equal(
                outcome.lanes[0].estimate.counts,
                expected.lanes[0].estimate.counts,
            )
            assert backend.transport_summary()["reconciles"] == 1.0

    def test_refresh_epoch_must_advance(self):
        with ProcessPoolBackend(
            SMALL, num_shards=1, num_machines=2, seed=0
        ) as backend:
            with pytest.raises(ConfigError, match="epoch must advance"):
                backend.refresh(SMALL, backend.replications, epoch=0)

    def test_refresh_validates_table_count(self):
        with ProcessPoolBackend(
            SMALL, num_shards=2, num_machines=4, seed=0
        ) as backend:
            with pytest.raises(ConfigError, match="replication tables"):
                backend.refresh(SMALL, backend.replications[:1])

    def test_close_is_idempotent_and_final(self):
        backend = ProcessPoolBackend(
            SMALL, num_shards=1, num_machines=2, seed=0
        )
        backend.run_batch(FAST, [RankingQuery(seeds=(1,), k=5)])
        backend.close()
        backend.close()  # idempotent
        assert backend._arenas == {}
        with pytest.raises(EngineError, match="closed"):
            backend.run_batch(FAST, [RankingQuery(seeds=(1,), k=5)])


class TestServiceWiring:
    def test_backend_string_process_matches_sharded(self):
        answers = {}
        for kind in ("sharded", "process"):
            service = RankingService(
                SMALL,
                config=FAST,
                num_machines=4,
                num_shards=2,
                backend=kind,
            )
            try:
                answers[kind] = service.query([7, 12], k=8)
            finally:
                service.close()
        np.testing.assert_array_equal(
            answers["process"].vertices, answers["sharded"].vertices
        )
        np.testing.assert_allclose(
            answers["process"].scores, answers["sharded"].scores
        )

    def test_unknown_backend_string_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            RankingService(SMALL, config=FAST, backend="quantum")
