"""Compiled kernel tier: bitwise parity, fallback, layout, arena.

The ``kernel="compiled"`` tier replaces the fused kernel's
``unique`` + ``searchsorted`` + ``bincount`` chains with single-pass
compiled loops, but it must never change a computed value.  These
tests pin that contract without requiring Numba on the test host:
``REPRO_COMPILED_FORCE=python`` makes the compiled tier run its
pure-Python pass implementations — the very loops Numba jits — so the
parity matrix here exercises the compiled code paths bit-for-bit
everywhere (CI's ``kernel-compiled`` lane re-runs the same tests with
the ``[accel]`` extra installed, where the jitted loops must agree):

* **parity matrix** — compiled output (per-lane counters, attributed
  reports, physical report) is bitwise identical to the pinned fused
  kernel for every supported configuration, at B=1 against the
  single-query runner, on dangling graphs, and on both the dense and
  the sorted reduction paths (``REPRO_COMPILED_DENSE_BUDGET=0``);
* **graceful degradation** — requesting ``"compiled"`` without Numba
  falls back to ``"fused"`` with exactly one RuntimeWarning per
  process (never an ImportError, even with the ``numba`` import
  masked in a fresh interpreter), and :func:`available_kernels`
  reports what is runnable;
* **int32 narrowing** — lane-key packing round-trips against the
  int64 reference and the overflow guard trips exactly at
  ``B * n >= 2**31`` (hypothesis property);
* **arena & tiles** — bump-allocator accounting (peak ≤ demand,
  growth keeps old views valid, persistent regions survive reset) and
  tile plans that partition rows under any budget;
* **serving seam** — ``kernel="compiled"`` flows through
  :class:`ShardedBackend` and :class:`ProcessPoolBackend` (workers
  included) without perturbing the golden counters.
"""

import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchQuery,
    FrogWildConfig,
    available_kernels,
    run_frogwild,
    run_frogwild_batch,
)
from repro.core.kernels import (
    KERNEL_TIERS,
    BufferArena,
    lane_key_dtype,
    pack_lane_keys,
    plan_tiles,
    reset_fallback_warning,
    resolve_kernel,
    unpack_lane_keys,
)
from repro.engine import build_cluster
from repro.errors import ConfigError
from repro.graph import from_edges, twitter_like

GRAPH = twitter_like(n=600, seed=13)


@pytest.fixture
def force_python(monkeypatch):
    """Run the compiled tier's passes in pure Python on Numba-less hosts."""
    monkeypatch.setenv("REPRO_COMPILED_FORCE", "python")


def _run(queries, kernel="fused", machines=4, graph=None, **config_kwargs):
    graph = GRAPH if graph is None else graph
    defaults = dict(num_frogs=1500, iterations=4, seed=7)
    defaults.update(config_kwargs)
    config = FrogWildConfig(**defaults)
    return run_frogwild_batch(
        graph,
        queries,
        config,
        state=build_cluster(graph, machines, seed=config.seed),
        kernel=kernel,
    )


def _assert_bitwise(compiled, fused):
    for lane_c, lane_f in zip(compiled.results, fused.results):
        np.testing.assert_array_equal(
            lane_c.estimate.counts, lane_f.estimate.counts
        )
        assert lane_c.report.network_bytes == lane_f.report.network_bytes
        assert lane_c.report.cpu_seconds == lane_f.report.cpu_seconds
        assert lane_c.report.supersteps == lane_f.report.supersteps
    assert compiled.report.network_bytes == fused.report.network_bytes
    assert compiled.report.cpu_seconds == fused.report.cpu_seconds
    assert compiled.report.total_time_s == fused.report.total_time_s


# ----------------------------------------------------------------------
# Bitwise parity with the pinned fused kernel
# ----------------------------------------------------------------------
class TestCompiledParity:
    CONFIGS = [
        dict(),
        dict(ps=0.6),
        dict(ps=0.0),
        dict(ps=0.3, erasure_model="independent"),
        dict(ps=0.8, scatter_mode="binomial"),
        dict(ps=0.4, scatter_mode="binomial", erasure_model="independent"),
        dict(ps=0.6, sync_mode="shared"),
        dict(ps=0.6, wire_dedupe=True),
        dict(ps=0.6, sync_mode="shared", wire_dedupe=True),
    ]

    @pytest.mark.parametrize("config_kwargs", CONFIGS)
    def test_compiled_matches_fused_golden(
        self, force_python, config_kwargs
    ):
        queries = [
            BatchQuery(seed=4),
            BatchQuery(seed=5, num_frogs=700),
            BatchQuery(seed=6, num_frogs=2200),
        ]
        compiled = _run(queries, kernel="compiled", **config_kwargs)
        fused = _run(queries, kernel="fused", **config_kwargs)
        _assert_bitwise(compiled, fused)

    @pytest.mark.parametrize(
        "config_kwargs",
        [dict(), dict(ps=0.6, sync_mode="shared"), dict(wire_dedupe=True)],
    )
    def test_sorted_reduction_path_matches(
        self, force_python, monkeypatch, config_kwargs
    ):
        """Dense-map and sort-scan reductions are interchangeable: a
        zero working-set budget forces every pass onto the sorted
        fallback without changing one bit."""
        queries = [BatchQuery(seed=4), BatchQuery(seed=5, num_frogs=900)]
        fused = _run(queries, kernel="fused", **config_kwargs)
        monkeypatch.setenv("REPRO_COMPILED_DENSE_BUDGET", "0")
        compiled = _run(queries, kernel="compiled", **config_kwargs)
        _assert_bitwise(compiled, fused)

    def test_b1_matches_single_query_runner(self, force_python):
        config = FrogWildConfig(num_frogs=1500, iterations=4, seed=7)
        batch = run_frogwild_batch(
            GRAPH,
            [BatchQuery(seed=7)],
            config,
            state=build_cluster(GRAPH, 4, seed=7),
            kernel="compiled",
        )
        single = run_frogwild(
            GRAPH, config, state=build_cluster(GRAPH, 4, seed=7)
        )
        np.testing.assert_array_equal(
            batch.results[0].estimate.counts, single.estimate.counts
        )
        assert (
            batch.results[0].report.network_bytes
            == single.report.network_bytes
        )

    @pytest.mark.parametrize(
        "config_kwargs",
        [dict(), dict(sync_mode="shared"), dict(scatter_mode="binomial")],
    )
    def test_dangling_vertices_parity(self, force_python, config_kwargs):
        graph = from_edges(
            [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3), (4, 0),
             (0, 4), (4, 3)],
            repair_dangling="none",
        )
        queries = [BatchQuery(seed=5 + s) for s in range(3)]
        kwargs = dict(
            graph=graph,
            machines=3,
            num_frogs=300,
            iterations=6,
            ps=0.2,
            seed=5,
        )
        kwargs.update(config_kwargs)
        compiled = _run(queries, kernel="compiled", **kwargs)
        fused = _run(queries, kernel="fused", **kwargs)
        _assert_bitwise(compiled, fused)
        if config_kwargs.get("scatter_mode", "multinomial") == "multinomial":
            # Multinomial scatter conserves the population even when
            # frogs idle on dangling rows (binomial may duplicate).
            for lane in compiled.results:
                assert lane.estimate.total_stopped == 300


# ----------------------------------------------------------------------
# Graceful degradation without Numba
# ----------------------------------------------------------------------
class TestFallback:
    @pytest.fixture
    def no_numba(self, monkeypatch):
        from repro.core.kernels import compiled

        monkeypatch.delenv("REPRO_COMPILED_FORCE", raising=False)
        monkeypatch.setattr(compiled, "HAVE_NUMBA", False)
        reset_fallback_warning()
        yield
        reset_fallback_warning()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="kernel"):
            resolve_kernel("vectorized")

    def test_available_kernels_excludes_compiled(self, no_numba):
        assert available_kernels() == ("fused",)

    def test_available_kernels_with_force(self, force_python):
        assert available_kernels() == KERNEL_TIERS

    def test_fallback_warns_exactly_once(self, no_numba):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_kernel("compiled") == "fused"
            assert resolve_kernel("compiled") == "fused"
        fallback = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(fallback) == 1
        assert "accel" in str(fallback[0].message)

    def test_fallback_run_matches_fused(self, no_numba):
        queries = [BatchQuery(seed=4), BatchQuery(seed=5)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            degraded = _run(queries, kernel="compiled")
        fused = _run(queries, kernel="fused")
        _assert_bitwise(degraded, fused)

    def test_masked_numba_import_never_raises(self):
        """Even a hard-masked ``import numba`` (fresh interpreter) must
        degrade to fused with a warning, not an ImportError."""
        code = (
            "import sys, warnings\n"
            "sys.modules['numba'] = None\n"
            "from repro.core.kernels import compiled, resolve_kernel\n"
            "assert not compiled.HAVE_NUMBA\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    assert resolve_kernel('compiled') == 'fused'\n"
            "assert len(caught) == 1\n"
            "print('masked-ok')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": "src",
                "REPRO_COMPILED_FORCE": "",
            },
            cwd=pathlib.Path(__file__).resolve().parent.parent,
        )
        assert result.returncode == 0, result.stderr
        assert "masked-ok" in result.stdout


# ----------------------------------------------------------------------
# int32 lane-key narrowing (property)
# ----------------------------------------------------------------------
class TestLaneKeyNarrowing:
    @given(
        num_lanes=st.integers(1, 512),
        num_vertices=st.integers(1, 1 << 40),
    )
    @settings(max_examples=120, deadline=None)
    def test_dtype_guard_trips_exactly_at_int32_span(
        self, num_lanes, num_vertices
    ):
        span = num_lanes * num_vertices
        dtype = lane_key_dtype(num_lanes, num_vertices)
        if span < 2**31:
            assert dtype == np.int32
            assert (
                lane_key_dtype(num_lanes, num_vertices, require_int32=True)
                == np.int32
            )
        else:
            assert dtype == np.int64
            with pytest.raises(OverflowError):
                lane_key_dtype(num_lanes, num_vertices, require_int32=True)

    @given(
        num_lanes=st.integers(1, 64),
        num_vertices=st.integers(1, 100_000),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_pack_roundtrips_against_int64_reference(
        self, num_lanes, num_vertices, data
    ):
        size = data.draw(st.integers(0, 50))
        lanes = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, num_lanes - 1),
                    min_size=size,
                    max_size=size,
                )
            ),
            dtype=np.int64,
        )
        verts = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, num_vertices - 1),
                    min_size=size,
                    max_size=size,
                )
            ),
            dtype=np.int64,
        )
        keys = pack_lane_keys(
            lanes, verts, num_vertices, num_lanes=num_lanes
        )
        reference = lanes * num_vertices + verts
        np.testing.assert_array_equal(keys.astype(np.int64), reference)
        back_lanes, back_verts = unpack_lane_keys(keys, num_vertices)
        np.testing.assert_array_equal(back_lanes, lanes)
        np.testing.assert_array_equal(back_verts, verts)
        expected = lane_key_dtype(num_lanes, num_vertices)
        assert keys.dtype == expected


# ----------------------------------------------------------------------
# Buffer arena accounting
# ----------------------------------------------------------------------
class TestBufferArena:
    def test_views_are_aligned_and_disjoint(self):
        arena = BufferArena(initial_bytes=1 << 12)
        a = arena.take(100, np.int64)
        b = arena.take((10, 7), np.float64)
        assert a.ctypes.data % 64 == 0
        assert b.ctypes.data % 64 == 0
        a[:] = 1
        b[:] = 2.0
        assert int(a.sum()) == 100  # b never overwrote a
        assert b.shape == (10, 7)

    def test_growth_keeps_old_views_alive(self):
        arena = BufferArena(initial_bytes=256)
        early = arena.take(16, np.int64)
        early[:] = np.arange(16)
        late = arena.take(4096, np.int64)  # forces a grow
        late[:] = -1
        np.testing.assert_array_equal(early, np.arange(16))
        assert arena.grows == 1

    def test_peak_and_demand_accounting(self):
        arena = BufferArena(initial_bytes=1 << 16)
        for _ in range(3):
            arena.reset()
            arena.take(1000, np.int64)
            arena.take(500, np.int32)
        stats = arena.stats()
        assert stats["alloc_demand_bytes"] == 3 * (8000 + 2000)
        assert stats["scratch_peak_bytes"] <= stats["capacity_bytes"]
        # Reuse means peak stays one superstep's worth, while the
        # pre-arena demand keeps accumulating.
        assert stats["scratch_peak_bytes"] < stats["alloc_demand_bytes"]
        assert stats["resets"] == 3

    def test_persistent_survives_reset_and_regrows_zeroed(self):
        arena = BufferArena()
        seen = arena.persistent("seen", 128, np.uint8)
        seen[:] = 1
        arena.reset()
        assert arena.persistent("seen", 128, np.uint8) is seen
        bigger = arena.persistent("seen", 256, np.uint8)
        assert bigger.size == 256
        assert int(bigger.sum()) == 0  # regrown buffers come back zeroed
        assert arena.stats()["persistent_bytes"] == 256


# ----------------------------------------------------------------------
# CSR tile planning
# ----------------------------------------------------------------------
class TestPlanTiles:
    def test_bounds_partition_rows(self):
        weights = np.array([10, 20, 30, 5, 100, 1], dtype=np.int64)
        bounds = plan_tiles(weights, budget=40)
        assert bounds[0] == 0 and bounds[-1] == len(weights)
        assert np.all(np.diff(bounds) > 0)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            # Either under budget, or a single oversized row.
            assert hi - lo == 1 or int(weights[lo:hi].sum()) <= 40

    def test_oversized_row_gets_own_tile(self):
        bounds = plan_tiles(np.array([1000], dtype=np.int64), budget=8)
        np.testing.assert_array_equal(bounds, [0, 1])

    def test_empty_input(self):
        np.testing.assert_array_equal(
            plan_tiles(np.zeros(0, dtype=np.int64), budget=64), [0]
        )

    def test_plan_is_traversal_only(self, force_python, monkeypatch):
        """A pathologically tiny tile budget must not change results."""
        queries = [BatchQuery(seed=4), BatchQuery(seed=5)]
        fused = _run(queries, kernel="fused")
        monkeypatch.setenv("REPRO_L2_BYTES", "1")
        compiled = _run(queries, kernel="compiled")
        _assert_bitwise(compiled, fused)


# ----------------------------------------------------------------------
# Serving backends
# ----------------------------------------------------------------------
class TestServingParity:
    def _queries(self):
        from repro.serving import RankingQuery

        return [
            RankingQuery(seeds=(7,), k=10),
            RankingQuery(seeds=(11, 42), k=10),
        ]

    def test_sharded_backend_compiled_matches_fused(self, force_python):
        from repro.serving import ShardedBackend

        config = FrogWildConfig(num_frogs=2000, iterations=4, seed=5)
        fused = ShardedBackend(
            GRAPH, num_shards=2, num_machines=8, seed=0, kernel="fused"
        ).run_batch(config, self._queries())
        compiled = ShardedBackend(
            GRAPH, num_shards=2, num_machines=8, seed=0, kernel="compiled"
        ).run_batch(config, self._queries())
        for lane_c, lane_f in zip(compiled.lanes, fused.lanes):
            np.testing.assert_array_equal(
                lane_c.estimate.counts, lane_f.estimate.counts
            )
            assert (
                lane_c.report.network_bytes == lane_f.report.network_bytes
            )

    def test_process_backend_compiled_matches_fused(self, force_python):
        """The forced-python env propagates to worker processes, so the
        compiled tier runs inside every worker and still merges to the
        fused golden counters."""
        from repro.serving import ProcessPoolBackend, ShardedBackend

        config = FrogWildConfig(num_frogs=2000, iterations=4, seed=5)
        fused = ShardedBackend(
            GRAPH, num_shards=2, num_machines=8, seed=0, kernel="fused"
        ).run_batch(config, self._queries())
        with ProcessPoolBackend(
            GRAPH, num_shards=2, num_machines=8, seed=0, kernel="compiled"
        ) as backend:
            compiled = backend.run_batch(config, self._queries())
        for lane_c, lane_f in zip(compiled.lanes, fused.lanes):
            np.testing.assert_array_equal(
                lane_c.estimate.counts, lane_f.estimate.counts
            )
            assert (
                lane_c.report.network_bytes == lane_f.report.network_bytes
            )
