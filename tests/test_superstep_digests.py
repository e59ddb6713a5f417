"""Golden digests of the FrogWild superstep.

Every case below runs one seeded FrogWild execution on a fresh cluster
and hashes what it produced: the estimate counters, every
:class:`~repro.engine.RunReport` field and, for batched runs, every
lane's :class:`~repro.engine.CostLedger`; fault runs add their fault
log.  ``tests/data/superstep_digests.json`` holds the expected sha256
of each case, so any change to random-stream order, frontier order,
record accounting or the fault hooks shows up as a digest mismatch.

The cases cover the batched kernel's equivalence configurations, the
single-query runner (global and personalized), and the fault runners
(crash, crash with rebirth, message drop in both scatter modes,
checkpoint recovery).  Regenerate the file only when a change to the
algorithm's output is intended::

    PYTHONPATH=src python tests/test_superstep_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    BatchQuery,
    FrogWildConfig,
    FrogWildRunner,
    run_frogwild_batch,
)
from repro.engine import build_cluster
from repro.faults import (
    CheckpointConfig,
    CheckpointedFrogWildRunner,
    FaultSchedule,
    FaultyFrogWildRunner,
    MachineCrash,
    MessageDrop,
)
from repro.graph import from_edges, twitter_like

DIGESTS = Path(__file__).parent / "data" / "superstep_digests.json"
GRAPH = twitter_like(n=600, seed=13)
DANGLING = from_edges(
    [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3), (4, 0), (0, 4), (4, 3)],
    repair_dangling="none",
)


class _Hasher:
    def __init__(self) -> None:
        self._sha = hashlib.sha256()

    def value(self, value) -> None:
        if isinstance(value, np.ndarray):
            self._sha.update(str(value.dtype).encode())
            self._sha.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, float):
            self._sha.update(value.hex().encode())
        elif isinstance(value, dict):
            for key in sorted(value):
                self.value(key)
                self.value(value[key])
        elif isinstance(value, (list, tuple)):
            for item in value:
                self.value(item)
        else:
            self._sha.update(repr(value).encode())
        self._sha.update(b"|")

    def result(self, result) -> None:
        self.value(result.estimate.counts)
        self.value(result.estimate.num_frogs)
        self.report(result.report)
        if result.ledger is not None:
            self.value(asdict(result.ledger))

    def report(self, report) -> None:
        for field in fields(report):
            self.value(getattr(report, field.name))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _batch_digest(queries, machines=4, **config_kwargs) -> str:
    defaults = dict(num_frogs=1500, iterations=4, seed=7)
    defaults.update(config_kwargs)
    config = FrogWildConfig(**defaults)
    batch = run_frogwild_batch(
        GRAPH,
        queries,
        config,
        state=build_cluster(GRAPH, machines, seed=config.seed),
    )
    hasher = _Hasher()
    for lane in batch.results:
        hasher.result(lane)
    hasher.report(batch.report)
    return hasher.hexdigest()


def _single_digest(graph=GRAPH, machines=4, start=None, **config_kwargs):
    config = FrogWildConfig(**config_kwargs)
    state = build_cluster(graph, machines, seed=config.seed)
    hasher = _Hasher()
    hasher.result(FrogWildRunner(state, config, start).run())
    return hasher.hexdigest()


def _fault_digest(schedule, checkpoint=None, **config_kwargs) -> str:
    defaults = dict(num_frogs=1500, iterations=4, seed=0)
    defaults.update(config_kwargs)
    config = FrogWildConfig(**defaults)
    state = build_cluster(GRAPH, 4, seed=config.seed)
    if checkpoint is None:
        runner = FaultyFrogWildRunner(state, config, schedule)
    else:
        runner = CheckpointedFrogWildRunner(state, config, schedule, checkpoint)
    hasher = _Hasher()
    hasher.result(runner.run())
    hasher.value(asdict(runner.fault_log))
    if checkpoint is not None:
        hasher.value([runner.frogs_restored, runner.checkpoints_taken])
    return hasher.hexdigest()


def _three_lanes():
    return [
        BatchQuery(seed=4),
        BatchQuery(seed=5, num_frogs=700),
        BatchQuery(seed=6, num_frogs=2200),
    ]


def _personalized_start():
    start = np.zeros(GRAPH.num_vertices)
    start[[3, 77, 140]] = 1.0 / 3.0
    return start


_CRASH = FaultSchedule(crashes=(MachineCrash(step=1, machine=0),))
_REBIRTH = FaultSchedule(
    crashes=(MachineCrash(step=1, machine=2, rebirth=True),)
)
_DROP = FaultSchedule(message_drop=MessageDrop(0.2))

CASES = {
    # Batched kernel, B=3: the kernel-equivalence configurations.
    "batch-default": lambda: _batch_digest(_three_lanes()),
    "batch-ps0.6": lambda: _batch_digest(_three_lanes(), ps=0.6),
    "batch-ps0": lambda: _batch_digest(_three_lanes(), ps=0.0),
    "batch-independent": lambda: _batch_digest(
        _three_lanes(), ps=0.3, erasure_model="independent"
    ),
    "batch-binomial": lambda: _batch_digest(
        _three_lanes(), ps=0.8, scatter_mode="binomial"
    ),
    "batch-binomial-independent": lambda: _batch_digest(
        _three_lanes(),
        ps=0.4,
        scatter_mode="binomial",
        erasure_model="independent",
    ),
    "batch-mixed-ps": lambda: _batch_digest(
        [BatchQuery(seed=s, ps=0.2 + 0.2 * s) for s in range(4)], ps=0.5
    ),
    "batch-early-death": lambda: _batch_digest(
        [BatchQuery(num_frogs=2, seed=s) for s in range(3)]
        + [BatchQuery(num_frogs=3000, seed=9)],
        iterations=40,
    ),
    # Single-query runner: the B=1 equivalence configurations.
    "single-default": lambda: _single_digest(
        num_frogs=2000, iterations=4, seed=7
    ),
    "single-ps0.6": lambda: _single_digest(
        num_frogs=1500, iterations=5, seed=3, ps=0.6
    ),
    "single-independent": lambda: _single_digest(
        num_frogs=1000, iterations=4, seed=9, ps=0.3,
        erasure_model="independent",
    ),
    "single-binomial": lambda: _single_digest(
        num_frogs=1200, iterations=4, seed=11, scatter_mode="binomial",
        ps=0.8,
    ),
    "single-ps0": lambda: _single_digest(
        num_frogs=1200, iterations=6, seed=5, ps=0.0
    ),
    "single-personalized": lambda: _single_digest(
        start=_personalized_start(), num_frogs=1500, iterations=6, seed=2,
        ps=0.7,
    ),
    "single-dangling": lambda: _single_digest(
        graph=DANGLING, machines=3, num_frogs=300, iterations=6, ps=0.2,
        seed=5,
    ),
    # Fault runners.
    "fault-crash": lambda: _fault_digest(_CRASH),
    "fault-crash-rebirth": lambda: _fault_digest(_REBIRTH, ps=0.7),
    "fault-drop": lambda: _fault_digest(_DROP),
    "fault-drop-binomial": lambda: _fault_digest(
        _DROP, ps=0.8, scatter_mode="binomial"
    ),
    "fault-crash-drop-independent": lambda: _fault_digest(
        FaultSchedule(
            crashes=(MachineCrash(step=2, machine=1),),
            message_drop=MessageDrop(0.1),
        ),
        ps=0.5,
        erasure_model="independent",
    ),
    "checkpoint-crash": lambda: _fault_digest(
        FaultSchedule(crashes=(MachineCrash(step=2, machine=0),)),
        CheckpointConfig(interval=1),
    ),
    "checkpoint-stale": lambda: _fault_digest(
        FaultSchedule(crashes=(MachineCrash(step=3, machine=3),)),
        CheckpointConfig(interval=2),
        ps=0.6,
    ),
}


def _expected() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def test_every_case_has_a_digest():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest_matches(name):
    assert CASES[name]() == _expected()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_superstep_digests.py --write")
    digests = {name: CASES[name]() for name in sorted(CASES)}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
