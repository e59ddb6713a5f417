"""FrogWild under injected faults.

:class:`FaultyFrogWildRunner` extends the stock runner through the two
subclass hooks of the batched kernel it runs on:

* ``_begin_superstep`` fires scheduled :class:`~repro.faults.MachineCrash`
  events — frogs mastered on the dead machine are lost (and optionally
  reborn uniformly), and the machine's mirrors leave the sync pool for
  good;
* ``_post_scatter`` applies :class:`~repro.faults.MessageDrop` — each
  machine-crossing frog delivery is lost independently, *after* its
  bytes were charged (the message really was sent).

The headline property this module exists to demonstrate: because frogs
are anonymous, uniformly born, and individually meaningless, FrogWild
degrades *gracefully* — a crash that wipes 1/M of the walkers costs
roughly a 1/M accuracy dent (rebirth even less), while an exact
synchronous PageRank would have to restart or replay the lost partition
before its answer means anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster import CostModel, EdgePartition, MessageSizeModel
from ..core import FrogWildConfig
from ..core.frogwild import FrogWildResult, FrogWildRunner
from ..engine import ClusterState, build_cluster
from ..errors import ConfigError
from ..graph import DiGraph
from .schedule import FaultSchedule

__all__ = ["FaultLog", "FaultyFrogWildRunner", "run_frogwild_with_faults"]


@dataclass
class FaultLog:
    """What the injected faults actually did to the run."""

    crashed_machines: list[int] = field(default_factory=list)
    frogs_lost_to_crashes: int = 0
    frogs_reborn: int = 0
    frogs_dropped_in_flight: int = 0

    @property
    def net_frogs_lost(self) -> int:
        """Walkers permanently removed from the run."""
        return (
            self.frogs_lost_to_crashes
            - self.frogs_reborn
            + self.frogs_dropped_in_flight
        )


class FaultyFrogWildRunner(FrogWildRunner):
    """The stock runner plus a fault schedule."""

    def __init__(
        self,
        state: ClusterState,
        config: FrogWildConfig,
        schedule: FaultSchedule,
        start_distribution: np.ndarray | None = None,
    ) -> None:
        super().__init__(state, config, start_distribution)
        for crash in schedule.crashes:
            if crash.machine >= state.num_machines:
                raise ConfigError(
                    f"crash targets machine {crash.machine} but the "
                    f"cluster has {state.num_machines}"
                )
        self.schedule = schedule
        self.fault_log = FaultLog()
        # Fault randomness must not perturb the walk randomness, so a
        # run with an empty schedule is bit-identical to the stock
        # runner: distinct stream.
        self._fault_rng = np.random.default_rng(
            config.seed if config.seed is None else [108, config.seed]
        )

    # ------------------------------------------------------------------
    def _begin_superstep(
        self, step: int, frontier: tuple[np.ndarray, ...]
    ) -> tuple[np.ndarray, ...]:
        crashes = self.schedule.crashes_at(step)
        if not crashes:
            return frontier
        frogs = _frog_vector(frontier, self.state.num_vertices)
        for crash in crashes:
            mastered = self._crash(crash.machine)
            lost = int(frogs[mastered].sum())
            frogs[mastered] = 0
            self.fault_log.frogs_lost_to_crashes += lost
            if crash.rebirth and lost:
                rebirth_positions = self._fault_rng.integers(
                    0, frogs.size, size=lost
                )
                frogs += np.bincount(rebirth_positions, minlength=frogs.size)
                self.fault_log.frogs_reborn += lost
        return _frontier(frogs)

    def _crash(self, machine: int) -> np.ndarray:
        """Take ``machine``'s mirrors out of the sync pool for good and
        return the vertices it mastered."""
        self.fault_log.crashed_machines.append(machine)
        # Fork before writing: the bitmap is the per-ingress cache.
        self._mirror_matrix = self._mirror_matrix.copy()
        self._mirror_matrix[:, machine] = False
        return self.state.replication.masters_on(machine)

    def _post_scatter(
        self, dest: np.ndarray, host: np.ndarray, frog_lane: np.ndarray
    ) -> np.ndarray | None:
        drop = self.schedule.message_drop
        if drop is None or drop.probability == 0.0 or dest.size == 0:
            return None
        remote = host != self.tables.masters[dest]
        coins = self._fault_rng.random(dest.size) < drop.probability
        lost = remote & coins
        self.fault_log.frogs_dropped_in_flight += int(lost.sum())
        return ~lost


def _frog_vector(
    frontier: tuple[np.ndarray, ...], num_vertices: int
) -> np.ndarray:
    """The dense frog-count vector of a one-lane frontier."""
    _, verts, k = frontier
    frogs = np.zeros(num_vertices, dtype=np.int64)
    frogs[verts] = k
    return frogs


def _frontier(frogs: np.ndarray) -> tuple[np.ndarray, ...]:
    """The one-lane ``(lane, vertex, count)`` frontier of ``frogs``."""
    verts = np.flatnonzero(frogs)
    return np.zeros(verts.size, dtype=np.int64), verts, frogs[verts]


def run_frogwild_with_faults(
    graph: DiGraph,
    schedule: FaultSchedule,
    config: FrogWildConfig | None = None,
    num_machines: int = 16,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    partition: EdgePartition | None = None,
    state: ClusterState | None = None,
) -> tuple[FrogWildResult, FaultLog]:
    """Run FrogWild end to end under a fault schedule.

    Mirrors :func:`repro.core.run_frogwild`, returning the usual result
    plus the :class:`FaultLog` of what the schedule inflicted.
    """
    config = config or FrogWildConfig()
    if state is None:
        state = build_cluster(
            graph,
            num_machines,
            partitioner=partitioner,
            cost_model=cost_model,
            size_model=size_model,
            seed=config.seed,
            partition=partition,
        )
    runner = FaultyFrogWildRunner(state, config, schedule)
    result = runner.run()
    return result, runner.fault_log
