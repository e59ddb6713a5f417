"""The out-of-core graph tier: SegmentStore vs the in-RAM reference.

Four families of guarantees pin the store down:

* **delta parity**: ``SegmentStore.apply`` / ``add_edges`` /
  ``remove_edges`` mirror :class:`~repro.dynamic.DynamicDiGraph`'s
  mutation semantics exactly — same counts, same version bumps (none on
  empty batches), same errors — so the two tiers stay interchangeable
  behind the :class:`~repro.store.GraphStore` protocol;
* **window-pruning sufficiency** (property-based, via hypothesis): a
  pruned scan over any window equals the reference
  :func:`~repro.store.scan_keys` over the full key set, for random
  delta sequences, segment sizes, and (mis)aligned machine placements,
  before and after compaction;
* **compaction/manifest discipline**: intervals stay sorted, disjoint
  per machine and covering; crash debris is sweepable; reopen round-trips;
* **tile planning**: :func:`~repro.core.kernels.plan_store_tiles`
  equals :func:`~repro.core.kernels.plan_tiles` fed the same weights.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels.layout import plan_store_tiles, plan_tiles
from repro.dynamic import DynamicDiGraph, GraphDelta
from repro.errors import ConfigError, GraphError
from repro.graph import twitter_like
from repro.store import (
    GraphStore,
    SegmentStore,
    Window,
    as_graph_store,
    edges_to_keys,
    keys_to_edges,
    scan_keys,
)

GRAPH = twitter_like(n=300, seed=3)


def _random_edges(rng, n, count):
    edges = rng.integers(0, n, size=(count, 2), dtype=np.int64)
    return edges[edges[:, 0] != edges[:, 1]]


def _store(tmp_path, graph=GRAPH, **kwargs):
    kwargs.setdefault("num_machines", 4)
    kwargs.setdefault("segment_edges", 256)
    return SegmentStore.create(tmp_path / "seg", source=graph, **kwargs)


class TestProtocol:
    def test_digraph_and_dynamic_satisfy_protocol(self):
        assert isinstance(GRAPH, GraphStore)
        assert isinstance(DynamicDiGraph.from_digraph(GRAPH), GraphStore)

    def test_segment_store_satisfies_protocol(self, tmp_path):
        store = _store(tmp_path)
        assert isinstance(store, GraphStore)
        assert store.out_of_core
        assert not getattr(GRAPH, "out_of_core", False)

    def test_as_graph_store_rejects_non_stores(self):
        with pytest.raises(ConfigError):
            as_graph_store(object())

    def test_key_codec_roundtrip(self, rng):
        edges = _random_edges(rng, 50, 200)
        keys = edges_to_keys(edges, 50)
        back = keys_to_edges(keys, 50)
        assert np.array_equal(
            np.unique(keys), edges_to_keys(back, 50)
        )


class TestCreateAndScan:
    def test_bulk_load_matches_source(self, tmp_path):
        store = _store(tmp_path)
        assert store.num_vertices == GRAPH.num_vertices
        assert store.num_edges == GRAPH.num_edges
        assert np.array_equal(store.edge_keys(), GRAPH.edge_keys())

    def test_snapshot_is_bitwise_equal(self, tmp_path):
        store = _store(tmp_path)
        snap = store.snapshot()
        assert np.array_equal(
            snap.csr_components()["indptr"],
            GRAPH.csr_components()["indptr"],
        )
        assert np.array_equal(
            snap.csr_components()["indices"],
            GRAPH.csr_components()["indices"],
        )

    def test_aligned_scan_prunes_and_matches_reference(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        full = store.edge_keys()
        window = Window(50, 200, machine=2, num_machines=4, salt=0)
        got = store.scan(window)
        assert np.array_equal(got, scan_keys(full, n, window))
        stats = store.scan_stats
        assert stats.segments_pruned > 0
        assert stats.segments_scanned < stats.segments_considered

    def test_misaligned_scan_falls_back_to_hash_filter(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        full = store.edge_keys()
        # Different machine count / salt than the store's placement:
        # segment machine labels are useless, interval pruning isn't.
        window = Window(0, n, machine=1, num_machines=3, salt=9)
        assert np.array_equal(
            store.scan(window), scan_keys(full, n, window)
        )

    def test_empty_and_degenerate_windows(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        assert store.scan(Window(10, 10)).size == 0
        assert store.scan(Window(n, n)).size == 0
        assert np.array_equal(store.scan(Window(0, n)), store.edge_keys())

    def test_create_requires_dimensions(self, tmp_path):
        with pytest.raises(ConfigError):
            SegmentStore.create(tmp_path / "x")


class TestDeltaParity:
    """SegmentStore.apply mirrors DynamicDiGraph.apply bit for bit."""

    def _pair(self, tmp_path):
        return (
            DynamicDiGraph.from_digraph(GRAPH),
            _store(tmp_path),
        )

    def test_apply_counts_versions_and_keys_track_ram(
        self, tmp_path, rng
    ):
        dyn, store = self._pair(tmp_path)
        n = GRAPH.num_vertices
        for _ in range(6):
            added = _random_edges(rng, n, 40)
            existing = keys_to_edges(dyn.edge_keys(), n)
            picks = rng.choice(
                existing.shape[0], size=25, replace=False
            )
            delta = GraphDelta(added=added, removed=existing[picks])
            assert dyn.apply(delta) == store.apply(delta)
            assert dyn.version == store.version
            assert dyn.num_edges == store.num_edges
            assert np.array_equal(dyn.edge_keys(), store.edge_keys())

    def test_empty_batches_do_not_bump_version(self, tmp_path):
        dyn, store = self._pair(tmp_path)
        empty = np.empty((0, 2), dtype=np.int64)
        for target in (dyn, store):
            before = target.version
            assert target.add_edges(empty) == 0
            assert target.remove_edges(empty) == 0
            assert target.version == before

    def test_duplicate_adds_and_missing_removes(self, tmp_path, rng):
        dyn, store = self._pair(tmp_path)
        n = GRAPH.num_vertices
        existing = keys_to_edges(dyn.edge_keys(), n)[:10]
        missing = existing[:, ::-1].copy()
        missing = missing[
            ~np.isin(
                edges_to_keys(missing, n), dyn.edge_keys(),
            )
        ]
        for target in (dyn, store):
            assert target.add_edges(existing) == 0  # already present
            assert target.remove_edges(missing) == 0  # never present
        assert dyn.version == store.version

    def test_readd_resurrects_removed_edge(self, tmp_path):
        dyn, store = self._pair(tmp_path)
        n = GRAPH.num_vertices
        edge = keys_to_edges(dyn.edge_keys()[:1], n)
        for target in (dyn, store):
            assert target.remove_edges(edge) == 1
            assert target.add_edges(edge) == 1
        assert np.array_equal(dyn.edge_keys(), store.edge_keys())

    def test_out_of_range_endpoints_raise(self, tmp_path):
        dyn, store = self._pair(tmp_path)
        bad = np.array([[0, GRAPH.num_vertices]], dtype=np.int64)
        for target in (dyn, store):
            with pytest.raises(GraphError):
                target.add_edges(bad)
        malformed = np.zeros((2, 3), dtype=np.int64)
        for target in (dyn, store):
            with pytest.raises(GraphError):
                target.add_edges(malformed)


class TestCompaction:
    def test_compact_folds_delta_and_preserves_keys(
        self, tmp_path, rng
    ):
        store = _store(tmp_path)
        n = store.num_vertices
        store.add_edges(_random_edges(rng, n, 300))
        existing = keys_to_edges(store.edge_keys(), n)
        store.remove_edges(existing[::7])
        before = store.edge_keys().copy()
        version = store.version
        stats = store.compact()
        assert stats.folded_keys > 0
        assert store.pending_delta == 0
        assert store.version == version  # same edge set, same version
        assert np.array_equal(store.edge_keys(), before)
        store.check_intervals()

    def test_compact_rewrites_only_dirty_machines(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        # One edge targets exactly one machine's key space.
        key = store.edge_keys()[:1]
        store.remove_edges(keys_to_edges(key, n))
        stats = store.compact()
        assert stats.machines_rewritten == 1

    def test_maybe_compact_respects_threshold(self, tmp_path, rng):
        store = _store(tmp_path)
        store.add_edges(_random_edges(rng, store.num_vertices, 20))
        assert store.maybe_compact(threshold=10_000) is None
        assert store.maybe_compact(threshold=4) is not None
        assert store.pending_delta == 0

    def test_reopen_after_compaction(self, tmp_path, rng):
        store = _store(tmp_path)
        store.add_edges(_random_edges(rng, store.num_vertices, 150))
        store.compact()
        keys = store.edge_keys().copy()
        reopened = SegmentStore(tmp_path / "seg")
        assert reopened.version == store.version
        assert np.array_equal(reopened.edge_keys(), keys)
        reopened.check_intervals()

    def test_uncompacted_delta_is_not_persisted(self, tmp_path, rng):
        store = _store(tmp_path)
        store.add_edges(_random_edges(rng, store.num_vertices, 50))
        assert SegmentStore(tmp_path / "seg").pending_delta == 0

    def test_orphan_sweep(self, tmp_path):
        store = _store(tmp_path)
        owned = tmp_path / "seg" / store.segment_files()[0]
        orphan = tmp_path / "seg" / "seg-99999999-m0.npy"
        orphan.write_bytes(owned.read_bytes())
        assert store.sweep_orphans() == ["seg-99999999-m0.npy"]
        assert not orphan.exists()
        assert store.list_segment_files() == store.segment_files()

    def test_check_intervals_rejects_corrupt_manifest(self, tmp_path):
        store = _store(tmp_path)
        meta = store._segments[0]
        corrupted = type(meta)(
            machine=meta.machine,
            key_lo=meta.key_hi + 1,  # interval no longer covers keys
            key_hi=meta.key_hi + 2,
            count=meta.count,
            file=meta.file,
        )
        store._segments[0] = corrupted
        with pytest.raises(GraphError):
            store.check_intervals()


@st.composite
def _delta_scenarios(draw):
    n = draw(st.integers(min_value=8, max_value=64))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    base = _random_edges(rng, n, draw(st.integers(0, 120)))
    steps = draw(st.integers(min_value=0, max_value=4))
    machines = draw(st.integers(min_value=1, max_value=5))
    salt = draw(st.integers(min_value=0, max_value=3))
    segment_edges = draw(st.sampled_from([4, 16, 64, 1024]))
    lo = draw(st.integers(0, n))
    hi = draw(st.integers(0, n))
    lo, hi = min(lo, hi), max(lo, hi)
    q_machines = draw(st.integers(min_value=1, max_value=5))
    q_machine = draw(st.integers(0, q_machines - 1))
    q_salt = draw(st.integers(min_value=0, max_value=3))
    return (
        n, rng, base, steps, machines, salt, segment_edges,
        Window(lo, hi, machine=q_machine, num_machines=q_machines,
               salt=q_salt),
    )


class TestWindowPruningProperty:
    """Pruned scan == full reference scan, uncompacted deltas included."""

    @settings(max_examples=40, deadline=None)
    @given(scenario=_delta_scenarios())
    def test_pruned_scan_equals_reference(self, scenario):
        (n, rng, base, steps, machines, salt, segment_edges,
         window) = scenario
        with tempfile.TemporaryDirectory() as tmp:
            self._check(
                Path(tmp), n, rng, base, steps, machines, salt,
                segment_edges, window,
            )

    def _check(
        self, tmp_path, n, rng, base, steps, machines, salt,
        segment_edges, window,
    ):
        store = SegmentStore.create(
            tmp_path / "prop",
            source=base if base.size else None,
            num_vertices=n,
            num_machines=machines,
            salt=salt,
            segment_edges=segment_edges,
        )
        for step in range(steps):
            added = _random_edges(rng, n, int(rng.integers(0, 30)))
            keys = store.edge_keys()
            removed = (
                keys_to_edges(
                    rng.choice(
                        keys, size=min(8, keys.size), replace=False
                    ),
                    n,
                )
                if keys.size
                else np.empty((0, 2), dtype=np.int64)
            )
            store.apply(GraphDelta(added=added, removed=removed))
            full = store.edge_keys()
            assert np.array_equal(
                store.scan(window), scan_keys(full, n, window)
            )
            # Also an aligned window (the fast pruning path).
            aligned = Window(
                window.vertex_lo, window.vertex_hi,
                machine=min(window.machine or 0, machines - 1),
                num_machines=machines, salt=salt,
            )
            assert np.array_equal(
                store.scan(aligned), scan_keys(full, n, aligned)
            )
        store.compact()
        store.check_intervals()
        full = store.edge_keys()
        assert np.array_equal(
            store.scan(window), scan_keys(full, n, window)
        )


class TestStoreTiles:
    def test_plan_store_tiles_equals_plan_tiles(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        keys = store.edge_keys()
        weights = np.bincount(keys // n, minlength=n) * 16
        for budget in (64, 1024, 16 * GRAPH.num_edges + 1):
            expected = plan_tiles(weights, budget)
            got = plan_store_tiles(
                store, budget, chunk_vertices=37
            )
            assert np.array_equal(got, expected), budget

    def test_plan_store_tiles_windowed(self, tmp_path):
        store = _store(tmp_path)
        n = store.num_vertices
        window = Window(40, 210)
        keys = scan_keys(store.edge_keys(), n, window)
        weights = np.bincount(
            keys // n - 40, minlength=210 - 40
        ) * 16
        expected = 40 + plan_tiles(weights, 512)
        got = plan_store_tiles(
            store, 512, window=window, chunk_vertices=11
        )
        assert np.array_equal(got, expected)

    def test_plan_store_tiles_on_ram_store(self):
        weights = np.bincount(
            GRAPH.edge_keys() // GRAPH.num_vertices,
            minlength=GRAPH.num_vertices,
        ) * 16
        assert np.array_equal(
            plan_store_tiles(GRAPH, 2048),
            plan_tiles(weights, 2048),
        )


class TestDeprecatedReaches:
    def test_digraph_scan_matches_reference(self, rng):
        window = Window(100, 220, machine=1, num_machines=3, salt=2)
        assert np.array_equal(
            GRAPH.scan(window),
            scan_keys(GRAPH.edge_keys(), GRAPH.num_vertices, window),
        )
