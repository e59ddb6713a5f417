"""The FrogWild! algorithm (Section 2.2 of the paper).

N frogs are born on uniformly random vertices.  Each superstep every
frog first dies with probability ``p_T`` (realizing teleportation per
Lemma 16 — death plus the uniform birth equals a restart), then hops
along a uniformly random *enabled* out-edge.  An out-edge is enabled
when the mirror hosting it was synchronized this barrier — the paper's
``ps`` patch (see :class:`~repro.engine.sync.MirrorSynchronizer`) —
with the configured erasure model repairing all-erased vertices.  After
``t`` supersteps all surviving frogs stop and are counted; the counter
vector normalized by N is the PageRank estimate (Definition 5).

The runner is the simulator's equivalent of the paper's GraphLab vertex
program plus engine patch; it shares every accounting primitive with the
baseline engine so the network/CPU/time comparisons are apples-to-apples.

Implementation notes mirrored from the paper (Section 3.3):

* frogs are anonymous, so all frogs crossing a machine boundary toward
  the same destination vertex travel as one ``(vertex, count)`` record;
* there are no teleport messages at all — deaths are local;
* in ``multinomial`` scatter mode the K surviving frogs of a vertex are
  split uniformly over enabled edges (frog-conserving, the paper's
  actual implementation); ``binomial`` mode follows the pseudocode
  literally with an independent Bin(K, 1/(d_out ps)) per enabled edge.

The runner is a one-query facade over
:class:`~repro.core.batched.BatchedFrogWildRunner`: the population is
lane 0 of the fused lane-major kernel, which holds the one numpy
superstep.  Edge-level work is expanded for *enabled* machine-groups
only, so a run at ``ps < 1`` never materializes the disabled part of
the frontier.
"""

from __future__ import annotations

import numpy as np

from ..cluster import CostModel, EdgePartition, MessageSizeModel
from ..engine import ClusterState, RunReport, build_cluster
from ..graph import DiGraph
from .batched import BatchedFrogWildRunner, BatchQuery, FrogWildResult

# The kernel helpers live with the one superstep in .batched; importers
# of this module (spill, live ingress, perfbench) keep their paths.
from .batched import _kernel_tables as _kernel_tables
from .batched import _KernelTables as _KernelTables
from .batched import _ranges_to_indices as _ranges_to_indices
from .batched import prime_ingress_caches as prime_ingress_caches
from .config import FrogWildConfig
from .estimator import PageRankEstimate

__all__ = ["FrogWildResult", "FrogWildRunner", "run_frogwild"]


class FrogWildRunner(BatchedFrogWildRunner):
    """Executes FrogWild on a prepared simulated cluster.

    One population on the batched runner's fused kernel, under per-lane
    sync and without wire dedupe (the shared-record modes mean nothing
    for a single population).  The report covers this run only, even
    on a ``state`` that earlier runs already used.
    """

    def __init__(
        self,
        state: ClusterState,
        config: FrogWildConfig,
        start_distribution: np.ndarray | None = None,
    ) -> None:
        """``start_distribution`` overrides the uniform frog births.

        Because deaths restart the (implicit) walk at the birth law
        (Lemma 16), a non-uniform birth distribution computes
        *Personalized* PageRank with that teleport vector — see
        :mod:`repro.core.personalized`.
        """
        super().__init__(
            state,
            config.with_updates(sync_mode="per-lane", wire_dedupe=False),
            [BatchQuery(start_distribution=start_distribution)],
        )

    def run(self) -> FrogWildResult:
        """Run ``iterations`` supersteps and return the estimate."""
        state = self.state
        cfg = self.config
        first_step = state.stats.num_supersteps
        bytes_before = state.fabric.total_bytes()
        self._execute()
        steps = state.stats.steps[first_step:]
        total_time = sum(step.sim_seconds for step in steps)
        report = RunReport(
            algorithm=f"frogwild(ps={cfg.ps:g})",
            num_machines=state.num_machines,
            supersteps=len(steps),
            total_time_s=total_time,
            time_per_iteration_s=total_time / len(steps) if steps else 0.0,
            network_bytes=state.fabric.total_bytes() - bytes_before,
            cpu_seconds=state.cost_model.cpu_seconds(
                sum(step.cpu_ops for step in steps)
            ),
            extra={
                "num_frogs": float(cfg.num_frogs),
                "iterations": float(cfg.iterations),
                "ps": float(cfg.ps),
                "replication_factor": state.replication.replication_factor(),
            },
        )
        estimate = PageRankEstimate(self.counts[0], cfg.num_frogs)
        return FrogWildResult(estimate, report, state)


def run_frogwild(
    graph: DiGraph,
    config: FrogWildConfig | None = None,
    num_machines: int = 16,
    partitioner: str = "random",
    cost_model: CostModel | None = None,
    size_model: MessageSizeModel | None = None,
    partition: EdgePartition | None = None,
    state: ClusterState | None = None,
) -> FrogWildResult:
    """Run FrogWild end to end on a simulated cluster.

    Either pass a prebuilt ``state`` (to reuse an ingress across runs,
    as the paper does — ingress is excluded from all measurements) or
    let this build one.
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
    return FrogWildRunner(state, config).run()
