"""Out-of-core serving benchmark: bounded RSS, bounded slowdown.

The claim under test is the tentpole behind
:class:`~repro.store.SegmentStore` + the serving ``store=`` seam: a
ranking service can serve a graph whose serving tables are ~4x larger
than a configured working-set cap while staying **bitwise identical**
to the in-RAM construction, with

* **bounded residency** — a fresh process that opens the store (base
  segments and spilled serving tables are mmap'd, never materialized)
  and serves a windowed query stream grows its peak RSS over the
  interpreter baseline by at most the cap, because the ring-lattice
  workload's k-hop neighborhoods only touch a bounded slice of each
  mapped file;
* **bounded slowdown** — once the working set is resident (a warm-up
  pass pays the one-time minor faults), the mapped path answers the
  same batch within ``SLOWDOWN_BOUND`` of the RAM path: page-cache
  hits, not disk stalls, dominate steady-state serving.

The workload is a ring lattice (vertex ``i`` points at ``i+1 .. i+d``
mod ``n``) built inline: its CSR is written in one pass from arange
arithmetic and — unlike rmat — its frog traversals have *provably*
local working sets, which is what makes the RSS bound honest rather
than luck.  Residency is measured in a child subprocess as the
``VmHWM`` line of ``/proc/self/status`` (peak RSS is a
process-lifetime high-water mark, so the child does nothing but
load-and-serve; unlike ``ru_maxrss``, ``VmHWM`` does not inherit the
parent's peak across fork+exec), against a baseline child that pays
interpreter + imports but never builds a service — the delta
isolates serving memory from import noise.  Linux only.

Smoke mode (``REPRO_BENCH_SMOKE=1``) shrinks the graph and asserts
the parity/pruning/hygiene contract; the RSS and slowdown bounds are
asserted in the full run (where the 4x ratio is physically real) and
recorded unconditionally.

Run directly: ``python -m pytest benchmarks/bench_out_of_core.py -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import FrogWildConfig
from repro.experiments import record_perf
from repro.graph import DiGraph
from repro.serving import RankingQuery, RankingService
from repro.store import SegmentStore, Window, scan_keys

SMOKE = bool(int(os.environ.get("REPRO_BENCH_SMOKE", "0")))

N = 20_000 if SMOKE else 300_000
DEGREE = 8 if SMOKE else 12
MACHINES = 4
CONFIG = FrogWildConfig(
    num_frogs=1_000 if SMOKE else 8_000,
    iterations=3 if SMOKE else 4,
    ps=1.0,
    seed=0,
)
QUERIES = 4 if SMOKE else 8
#: The working-set cap the full run must serve under: a quarter of the
#: bytes the serving tier would otherwise hold in RAM.
CAP_RATIO = 4
SLOWDOWN_BOUND = 5.0

_CHILD = r"""
import json, sys

def peak_kb():
    # VmHWM is this process's own high-water mark.  ru_maxrss is not:
    # on Linux it survives fork+exec, so every child would report the
    # (much larger) pytest parent's peak and the delta would read 0.
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")

# Both children import the full serving stack so the RSS delta
# isolates what *serving* allocates, not what importing costs.
import numpy as np  # noqa: E402,F401
from repro.core import FrogWildConfig
from repro.serving import RankingQuery, RankingService
from repro.store import SegmentStore

mode, payload = sys.argv[1], json.loads(sys.argv[2])
if mode == "baseline":
    print(json.dumps({"rss_kb": peak_kb()}))
    sys.exit(0)

service = RankingService(
    config=FrogWildConfig(**payload["config"]),
    num_machines=payload["machines"],
    seed=payload["seed"],
    store=SegmentStore(payload["store_dir"]),
    cache_capacity=0,
)
queries = [
    RankingQuery(seeds=tuple(seeds), k=payload["k"])
    for seeds in payload["seed_sets"]
]
# First pass pays the one-time minor faults on the mapped tables and
# produces the answers; the timed second pass (cache disabled, so it
# is real work) measures steady-state serving per the bench contract.
answers = service.query_batch(queries)
start = __import__("time").perf_counter()
service.query_batch(queries)
elapsed = __import__("time").perf_counter() - start
service.close()
print(json.dumps({
    "rss_kb": peak_kb(),
    "serve_s": elapsed,
    "answers": [
        [list(map(int, a.vertices)), list(map(float, a.scores))]
        for a in answers
    ],
}))
"""


def ring_lattice(n: int, degree: int) -> DiGraph:
    """Vertex ``i`` -> ``i+1 .. i+degree`` (mod ``n``), CSR in one pass."""
    indptr = np.arange(n + 1, dtype=np.int64) * degree
    offsets = np.arange(1, degree + 1, dtype=np.int64)
    indices = (
        (np.arange(n, dtype=np.int64)[:, None] + offsets[None, :]) % n
    ).reshape(-1)
    return DiGraph(indptr, indices, validate=False)


def _run_child(mode: str, payload: dict) -> dict:
    env = dict(os.environ)
    root = Path(__file__).parent.parent
    env["PYTHONPATH"] = (
        f"{root / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
    )
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, json.dumps(payload)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    graph = ring_lattice(N, DEGREE)
    store = SegmentStore.create(
        tmp_path_factory.mktemp("oocbench") / "seg",
        source=graph,
        num_machines=MACHINES,
        salt=0,
    )
    rng = np.random.default_rng(42)
    # Clustered seed sets: each query's frogs roam a bounded arc of the
    # ring (k-hop reach <= iterations * degree vertices past the seed).
    anchors = rng.choice(N, size=QUERIES, replace=False)
    seed_sets = [
        tuple(sorted(int(a + j) % N for j in range(3))) for a in anchors
    ]
    return graph, store, seed_sets


def test_out_of_core_serving_bounded_rss_and_bitwise(workload):
    graph, store, seed_sets = workload

    ram = RankingService(
        graph, CONFIG, num_machines=MACHINES, seed=0, cache_capacity=0
    )
    queries = [RankingQuery(seeds=s, k=10) for s in seed_sets]
    golden = ram.query_batch(queries)  # warm-up pass, mirrors the child
    start = time.perf_counter()
    ram.query_batch(queries)
    ram_s = time.perf_counter() - start
    ram.close()

    # Warm construction in-parent writes the spill the child reuses
    # (the child must map tables, not rebuild them).
    warm = RankingService(
        config=CONFIG, num_machines=MACHINES, seed=0, store=store
    )
    warm.close()
    spilled = sum(
        p.stat().st_size for p in (store.directory / "serving").rglob("*")
        if p.is_file()
    )
    cap_bytes = (spilled + store.nbytes_on_disk()) // CAP_RATIO

    payload = {
        "config": {
            "num_frogs": CONFIG.num_frogs,
            "iterations": CONFIG.iterations,
            "ps": CONFIG.ps,
            "seed": CONFIG.seed,
        },
        "machines": MACHINES,
        "seed": 0,
        "store_dir": str(store.directory),
        "seed_sets": [list(s) for s in seed_sets],
        "k": 10,
    }
    baseline = _run_child("baseline", {})
    served = _run_child("serve", payload)

    # Peak RSS is a lifetime high-water mark: the import transient
    # (~70 MB, mostly numpy) dominates both children identically, so
    # the *delta* isolates what mapped serving added on top of it.
    rss_delta = max(0, served["rss_kb"] - baseline["rss_kb"]) * 1024
    bitwise = all(
        list(map(int, g.vertices)) == got[0]
        and list(map(float, g.scores)) == got[1]
        for g, got in zip(golden, served["answers"])
    )
    assert bitwise, "out-of-core answers drifted from the RAM tier"

    orphans = store.sweep_orphans()
    assert orphans == [], orphans

    slowdown = served["serve_s"] / ram_s if ram_s > 0 else float("inf")
    record_perf(
        "out-of-core-serving",
        {
            "n": N,
            "degree": DEGREE,
            "smoke": SMOKE,
            "store_bytes": store.nbytes_on_disk(),
            "spill_bytes": spilled,
            "rss_cap_bytes": cap_bytes,
            "rss_peak_bytes": rss_delta,
            "rss_child_kb": served["rss_kb"],
            "rss_baseline_kb": baseline["rss_kb"],
            "rss_over_cap": rss_delta / cap_bytes if cap_bytes else 0.0,
            "ram_serve_s": ram_s,
            "mapped_serve_s": served["serve_s"],
            "slowdown": slowdown,
            "bitwise_topk_equal": 1,
            "orphaned_segments": len(orphans),
        },
    )
    if not SMOKE:
        assert rss_delta <= cap_bytes, (
            f"mapped serving RSS {rss_delta / 1e6:.1f} MB exceeds the "
            f"{cap_bytes / 1e6:.1f} MB working-set cap"
        )
        assert slowdown <= SLOWDOWN_BOUND, slowdown


def test_windowed_scans_prune_on_the_bench_workload(workload):
    graph, store, _ = workload
    full = store.edge_keys()
    window = Window(
        N // 4, N // 4 + N // 8, machine=1, num_machines=MACHINES, salt=0
    )
    got = store.scan(window)
    assert np.array_equal(got, scan_keys(full, N, window))
    stats = store.scan_stats
    assert stats.segments_pruned > 0
    assert stats.pruned_fraction() > 0.5
