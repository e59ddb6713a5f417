"""Per-layer metrics of the traced run, named after ``src/repro`` modules.

Layer metrics a workload does not exercise read 0 (for example
``dynamic.snapshot_s`` on ``global-topk``): the layer did no work.
README.md in this directory maps each one to the end-to-end metric it
should move.
"""

from __future__ import annotations

import statistics
import threading
import time

from repro import FrogWildRunner, graphlab_pagerank
from repro.cluster.replication import ReplicationTable
from repro.core.batched import BatchedFrogWildRunner, merge_shard_results
from repro.engine.state import build_cluster

from spans import Span, coverage, self_times
from summary import tail

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = [
    ("engine.build_cluster_s", "s"),
    ("core.frogwild.run_s", "s"),
    ("core.frogwild.frog_steps_per_s", "1/s"),
    ("engine.sim_cpu_ops", "count"),
    ("engine.sim_net_bytes", "bytes"),
    ("core.frogwild.ns_per_sim_op", "ns"),
    ("pagerank.graphlab_pr.run_s", "s"),
    ("pagerank.graphlab_pr.sim_net_bytes", "bytes"),
    ("serving.service.query_batch_s", "s"),
    ("serving.service.overhead_s", "s"),
    ("serving.backend.run_batch_s", "s"),
    ("serving.process_backend.gap_s", "s"),
    ("core.batched.run_s", "s"),
    ("core.batched.frog_steps_per_s", "1/s"),
    ("core.batched.merge_s", "s"),
    ("cluster.transport.bytes_per_batch", "bytes"),
    ("cluster.transport.messages_per_batch", "count"),
    ("serving.supervisor.respawns", "count"),
    ("serving.cache.hit_rate", "fraction"),
    ("serving.batching.mean_batch_size", "count"),
    ("serving.batching.coalesced_share", "fraction"),
    ("serving.scheduler.queue_wait_p50_s", "s"),
    ("serving.scheduler.queue_wait_tail_s", "s"),
    ("serving.scheduler.max_backlog", "count"),
    ("traffic.gen_late_p99_s", "s"),
    ("traffic.gen_late_max_s", "s"),
    ("dynamic.apply_s", "s"),
    ("dynamic.snapshot_s", "s"),
    ("live.ingress.plan_s", "s"),
    ("live.ingress.apply_s", "s"),
    ("cluster.replication.patch_s", "s"),
    ("cluster.replication.patch_ratio", "fraction"),
    ("cluster.replication.vertices_patched", "count"),
    ("live.epoch.publish_s", "s"),
    ("live.ingress.reuse_ratio", "fraction"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "fraction"),
]


class QueueWaitProbe:
    """Stamps submit -> the ``run_batch`` call that carried the query.

    A duplicate that coalesces into a queued lane rides that lane's
    ``run_batch`` and gets its wait from the same stamp; a cache hit
    never reaches ``run_batch`` and is dropped.
    """

    def __init__(self) -> None:
        self.waits: list[float] = []
        self._submitted: dict[tuple, list[float]] = {}
        self._lock = threading.Lock()

    def stamp_submit(self, submit):
        def stamped(query):
            stamp = time.perf_counter()
            with self._lock:
                self._submitted.setdefault(query.seeds, []).append(stamp)
            future = submit(query)
            if future.done():  # a cache hit, or dispatched inline
                with self._lock:
                    stamps = self._submitted.get(query.seeds, [])
                    if stamp in stamps:
                        stamps.remove(stamp)
            return future

        return stamped

    def stamp_dispatch(self, run_batch):
        def stamped(config, queries):
            now = time.perf_counter()
            with self._lock:
                for query in queries:
                    for stamp in self._submitted.pop(query.seeds, ()):
                        self.waits.append(now - stamp)
            return run_batch(config, queries)

        return stamped


def install_entry_points(patcher, counters: dict) -> None:
    """Wrap the module- and class-level entry points (before set-up)."""
    recorder = patcher.recorder
    patcher.wrap_function(build_cluster, "engine.build_cluster")
    patcher.wrap_function(graphlab_pagerank, "pagerank.graphlab_pr")
    patcher.wrap_function(merge_shard_results, "core.batched.merge")
    patcher.wrap(FrogWildRunner, "run", "core.frogwild.run")
    patcher.wrap(ReplicationTable, "patched", "cluster.replication.patch")

    def count_batched(run):
        traced = recorder.wrap("core.batched.run", run)

        def counted(runner):
            result = traced(runner)
            counters["batched_frog_steps"] = counters.get(
                "batched_frog_steps", 0
            ) + runner.config.iterations * sum(
                lane.estimate.num_frogs for lane in result.results
            )
            return result

        return counted

    patcher.install(BatchedFrogWildRunner, "run", count_batched)


def _durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration_ns / 1e9 for s in spans if s.name == name]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    return values[min(len(values) - 1, int(q * len(values)))]


def layer_metrics(
    workload,
    system,
    spans: list[Span],
    setup_window: tuple[int, int],
    measure_window: tuple[int, int],
    traced,
    untraced,
    probe: QueueWaitProbe,
    counters: dict,
) -> dict[str, float]:
    """Every per-layer metric of one traced run (0 where unexercised)."""
    out = {name: 0.0 for name, _ in LAYER_METRICS}
    start, end = measure_window
    in_setup = [s for s in spans if setup_window[0] <= s.start_ns < setup_window[1]]
    # Traced-only extras (the GraphLab baseline, the in-process
    # comparison backend) run after the measured window.
    extras = [s for s in spans if s.start_ns >= end]
    spans = [s for s in spans if start <= s.start_ns < end]

    out["engine.build_cluster_s"] = float(
        sum(_durations(in_setup, "engine.build_cluster"))
    )

    # core.frogwild / engine counts (global-topk).
    runs = _durations(spans, "core.frogwild.run")
    if runs:
        out["core.frogwild.run_s"] = _median(runs)
        steps = workload.FROGS * workload.ITERATIONS
        out["core.frogwild.frog_steps_per_s"] = steps * len(runs) / sum(runs)
        ops = _median(traced.extra["sim_cpu_ops"][1])
        out["engine.sim_cpu_ops"] = ops
        out["core.frogwild.ns_per_sim_op"] = _median(runs) * 1e9 / ops
    if traced.answered:
        out["engine.sim_net_bytes"] = traced.net_bytes / traced.answered
    graphlab = _durations(extras, "pagerank.graphlab_pr")
    if graphlab:
        out["pagerank.graphlab_pr.run_s"] = _median(graphlab)
        out["pagerank.graphlab_pr.sim_net_bytes"] = traced.counts[
            "graphlab_net_bytes"
        ]

    # Serving: service façade, backend seam, batch kernel.
    own = self_times(spans)
    query_batches = [s for s in spans if s.name == "serving.service.query_batch"]
    out["serving.service.query_batch_s"] = _median(
        s.duration_ns / 1e9 for s in query_batches
    )
    out["serving.service.overhead_s"] = _median(
        own[s.span_id] / 1e9 for s in query_batches
    )
    run_batch = _durations(spans, "serving.backend.run_batch")
    out["serving.backend.run_batch_s"] = _median(run_batch)
    inproc = _durations(extras, "serving.backend.run_batch.inproc")
    if inproc:
        out["serving.process_backend.gap_s"] = _median(run_batch) - _median(inproc)
    batched = _durations(spans, "core.batched.run")
    out["core.batched.run_s"] = _median(batched)
    if batched:
        out["core.batched.frog_steps_per_s"] = counters.get(
            "batched_frog_steps", 0
        ) / sum(batched)
    out["core.batched.merge_s"] = _median(_durations(spans, "core.batched.merge"))

    batches = traced.counts.get("batches", 0.0)
    if "sent_measured_bytes" in traced.counts and batches:
        out["cluster.transport.bytes_per_batch"] = (
            traced.counts["sent_measured_bytes"] / batches
        )
        out["cluster.transport.messages_per_batch"] = (
            traced.counts["sent_messages"] / batches
        )
        out["serving.supervisor.respawns"] = traced.counts["respawns"]

    stats = getattr(system, "stats", None)
    if stats is not None:
        cache, hits = getattr(system, "cache", None), 0
        if cache is not None:
            hits = cache.stats.hits
            out["serving.cache.hit_rate"] = cache.stats.hit_rate()
        out["serving.batching.mean_batch_size"] = stats.mean_batch_size()
        if stats.queries_served:
            out["serving.batching.coalesced_share"] = (
                stats.queries_served - stats.queries_executed - hits
            ) / stats.queries_served

    out["serving.scheduler.queue_wait_p50_s"] = _median(probe.waits)
    if probe.waits:
        out["serving.scheduler.queue_wait_tail_s"] = tail(probe.waits)[0]
    phases = traced.counts.get("phases")
    if phases:
        late = [x for phase in phases.values() for x in phase.late]
        out["serving.scheduler.max_backlog"] = max(
            (max(p.queued, default=0) for p in phases.values()), default=0
        )
        out["traffic.gen_late_p99_s"] = _quantile(late, 0.99)
        out["traffic.gen_late_max_s"] = max(late, default=0.0)

    # Live refresh pipeline.
    for metric, span in (
        ("dynamic.apply_s", "dynamic.apply"),
        ("dynamic.snapshot_s", "dynamic.snapshot"),
        ("live.ingress.plan_s", "live.ingress.plan"),
        ("live.ingress.apply_s", "live.ingress.apply"),
        ("cluster.replication.patch_s", "cluster.replication.patch"),
        ("live.epoch.publish_s", "live.epoch.publish"),
    ):
        out[metric] = _median(_durations(spans, span))
    updates = traced.counts.get("updates")
    if updates:
        out["cluster.replication.patch_ratio"] = sum(
            1 for u in updates if not u.table_rebuilds
        ) / len(updates)
        out["cluster.replication.vertices_patched"] = _median(
            u.vertices_patched for u in updates
        )
        out["live.ingress.reuse_ratio"] = traced.counts["reuse_ratio"]

    out["trace.overhead"] = _median(traced.op_s) / _median(untraced.op_s) - 1.0
    out["trace.coverage"] = coverage(spans, start, end)
    return out
