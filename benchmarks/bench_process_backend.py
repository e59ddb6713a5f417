"""Process-pool backend benchmark: true multi-core scale-out.

The claim under test is the tentpole behind
:class:`~repro.serving.ProcessPoolBackend`: with the graph's CSR
arrays and every shard's replication table in shared memory, one OS
process per shard executes the same sharded batch the in-process
:class:`~repro.serving.ShardedBackend` simulates — **bitwise
identically** — while actually occupying multiple cores.  On a
machine with >= 4 cores, 4 worker processes must answer the batch in
at most half the wall-clock of the single-process
:class:`~repro.serving.LocalBackend` (>= 2x speedup); the golden
top-k must be unchanged and the measured transport bytes must
reconcile with the simulated :class:`~repro.cluster.MessageSizeModel`
pricing.

Wall-clock honesty: the speedup is *recorded* unconditionally (with
the host's ``cpu_count`` alongside, so a 1-core CI container's
number is interpretable) but *asserted* only where it is physically
achievable — a real-run host with >= 4 cores.  Smoke mode
(``REPRO_BENCH_SMOKE=1``) shrinks the workload and asserts the
scale-out contract instead: every worker participates, results are
bitwise equal to the sharded reference, and the transport reconciles.

Transport stalls: one B=64 batch is also timed on the process pool and
on the in-process :class:`~repro.serving.ShardedBackend` (same shards,
same queries; median of ``REPEATS`` runs each).  The kernel work is
equal, so ``process_vs_sharded_b64`` is what the process transport
costs on top of it.  The batch is sized so every shard's lane frames
overflow the OS pipe buffer — a collect loop that sleeps 50 ms
between frames read 60x here in smoke mode; a healthy transport stays
near 1x on any core count (CI gates it at 3x).

Run directly: ``python -m pytest benchmarks/bench_process_backend.py -q``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.experiments import record_perf
from repro.graph import rmat
from repro.serving import (
    LocalBackend,
    ProcessPoolBackend,
    RankingQuery,
    ShardedBackend,
)

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))

WORKERS = 4
MACHINES = 8
SCALE = 10 if SMOKE else 13
CONFIG = FrogWildConfig(
    num_frogs=4_000 if SMOKE else 60_000,
    iterations=3 if SMOKE else 6,
    ps=0.8,
    seed=0,
)
BATCH = 4 if SMOKE else 8
#: The B=64 transport-stall probe: small per-query budgets, but 64
#: lanes of 20-seed queries frame several hundred KiB per shard.
B64_CONFIG = FrogWildConfig(num_frogs=2_400, iterations=3, ps=0.8, seed=0)
B64_SEEDS = 20
REPEATS = 3

_CACHE: dict[str, object] = {}


@pytest.fixture(scope="module")
def workload():
    if "workload" not in _CACHE:
        graph = rmat(scale=SCALE, edge_factor=16, seed=7)
        rng = np.random.default_rng(123)
        queries = [
            RankingQuery(
                seeds=tuple(
                    np.sort(
                        rng.choice(graph.num_vertices, size=3, replace=False)
                    ).tolist()
                ),
                k=10,
            )
            for _ in range(BATCH)
        ]
        wide = [
            RankingQuery(
                seeds=tuple(
                    np.sort(
                        rng.choice(
                            graph.num_vertices, size=B64_SEEDS, replace=False
                        )
                    ).tolist()
                ),
                k=10,
            )
            for _ in range(64)
        ]
        _CACHE["workload"] = (graph, queries, wide)
    return _CACHE["workload"]


def _overlap(a: np.ndarray, b: np.ndarray) -> float:
    return len(set(a.tolist()) & set(b.tolist())) / len(a)


def _median_batch_s(backend, queries) -> tuple[float, object]:
    """Median wall time of ``REPEATS`` runs of one batch (and its outcome)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        outcome = backend.run_batch(B64_CONFIG, queries)
        times.append(time.perf_counter() - start)
    return float(np.median(times)), outcome


def test_process_backend_scaleout(workload):
    graph, queries, wide = workload
    cpu_count = os.cpu_count() or 1

    local = LocalBackend(graph, num_machines=MACHINES, seed=0)
    sharded = ShardedBackend(
        graph, num_shards=WORKERS, num_machines=MACHINES, seed=0
    )
    sharded_outcome = sharded.run_batch(CONFIG, queries)
    sharded_b64_s, sharded_b64 = _median_batch_s(sharded, wide)

    start = time.perf_counter()
    local_outcome = local.run_batch(CONFIG, queries)
    local_s = time.perf_counter() - start

    with ProcessPoolBackend(
        graph, num_shards=WORKERS, num_machines=MACHINES, seed=0
    ) as backend:
        backend.run_batch(  # warm-up: first batch pays worker spin-up
            FrogWildConfig(num_frogs=WORKERS, iterations=1, seed=0),
            queries[:1],
        )
        start = time.perf_counter()
        process_outcome = backend.run_batch(CONFIG, queries)
        process_s = time.perf_counter() - start
        transport = backend.transport_summary()
        process_b64_s, process_b64 = _median_batch_s(backend, wide)
        b64_transport = backend.transport_summary()
    b64_shard_bytes = (
        b64_transport["received_measured_bytes"]
        - transport["received_measured_bytes"]
    ) / (REPEATS * WORKERS)

    # Scale-out contract: every worker ran a share of every batch.
    assert len(process_outcome.shards) == WORKERS

    # Golden top-k unchanged: the process pool is bitwise the sharded
    # backend (same tables, shares, per-shard seeds), and its top-k
    # overlaps the single-process baseline at golden tolerance.
    overlaps = []
    for process_lane, sharded_lane, local_lane in zip(
        process_outcome.lanes, sharded_outcome.lanes, local_outcome.lanes
    ):
        np.testing.assert_array_equal(
            process_lane.estimate.counts, sharded_lane.estimate.counts
        )
        overlaps.append(
            _overlap(
                process_lane.estimate.top_k(10),
                local_lane.estimate.top_k(10),
            )
        )
    topk_overlap = float(np.mean(overlaps))
    assert topk_overlap >= 0.6
    for process_lane, sharded_lane in zip(process_b64.lanes, sharded_b64.lanes):
        np.testing.assert_array_equal(
            process_lane.estimate.counts, sharded_lane.estimate.counts
        )
    assert b64_transport["reconciles"] == 1.0
    # The stall probe only means something if the frames overflow the
    # pipe buffer (64 KiB on Linux).
    assert b64_shard_bytes > 128 * 1024, b64_shard_bytes

    # Measured transport bytes reconcile with the simulated pricing.
    assert transport["reconciles"] == 1.0
    assert transport["sent_measured_bytes"] > 0

    speedup = local_s / process_s if process_s > 0 else float("inf")
    b64_ratio = process_b64_s / sharded_b64_s
    print(
        f"\nlocal {local_s:.3f}s  process({WORKERS} workers) "
        f"{process_s:.3f}s  speedup {speedup:.2f}x  "
        f"(host cpu_count={cpu_count})  topk overlap {topk_overlap:.2f}"
        f"\nB=64: process {process_b64_s:.3f}s  sharded "
        f"{sharded_b64_s:.3f}s  ratio {b64_ratio:.2f}x  "
        f"({b64_shard_bytes / 1024:.0f} KiB framed per shard)"
    )
    record_perf(
        "process-backend-scaleout",
        {
            "local_s": local_s,
            "process_s": process_s,
            "speedup": speedup,
            "workers": WORKERS,
            "cpu_count": cpu_count,
            "batch_size": BATCH,
            "num_frogs": CONFIG.num_frogs,
            "golden_topk_bitwise_vs_sharded": 1.0,
            "topk_overlap_vs_local": topk_overlap,
            "transport_reconciles": transport["reconciles"],
            "transport_measured_bytes": transport["sent_measured_bytes"],
            "process_b64_s": process_b64_s,
            "sharded_b64_s": sharded_b64_s,
            "process_vs_sharded_b64": b64_ratio,
            "b64_shard_frame_bytes": b64_shard_bytes,
            "smoke": float(SMOKE),
        },
    )

    # The >= 2x bar needs >= 4 real cores and the full workload; on a
    # smaller host the honest number is recorded above, not asserted.
    if not SMOKE and cpu_count >= WORKERS:
        assert speedup >= 2.0, (
            f"{WORKERS} workers achieved only {speedup:.2f}x over "
            f"LocalBackend ({process_s:.3f}s vs {local_s:.3f}s) on a "
            f"{cpu_count}-core host; the scale-out contract is >= 2x"
        )
