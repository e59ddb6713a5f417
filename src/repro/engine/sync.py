"""Randomized mirror synchronization — the paper's GraphLab patch.

Stock PowerGraph synchronizes *every* mirror of a changed vertex at each
barrier.  The paper's key system modification (Section 1, third
innovation; Section 3.3) exposes a scalar ``ps``: each mirror is
synchronized independently with probability ``ps``, and mirrors left
un-synchronized stay idle for the following scatter phase.  Setting
``ps = 1`` reproduces stock behaviour exactly.

:class:`MirrorSynchronizer` implements the patch against the simulated
cluster, accounting one sync record per synchronized mirror.  The
returned coin matrix tells the caller (the FrogWild runner) which
replicas may participate in scatter — the coupling that turns partial
synchronization into the edge-erasure model of Definition 8.

The coin draw and the accounting are separable (:meth:`draw_fresh`):
the batched runner of :mod:`repro.core.batched` flips coins per frog
population but aggregates the resulting sync records across the whole
batch into one physical flush per barrier.
"""

from __future__ import annotations

import numpy as np

from ..errors import EngineError
from .state import ClusterState

__all__ = ["MirrorSynchronizer", "sync_pair_records"]


def sync_pair_records(
    masters: np.ndarray, synced: np.ndarray, num_machines: int
) -> np.ndarray:
    """Master-to-mirror record counts as a machine-pair matrix.

    ``masters[i]`` is the master machine of the i-th vertex and
    ``synced[i, p]`` marks machine ``p`` receiving a sync record for it;
    the result's ``[s, d]`` entry counts records sent from ``s`` to ``d``.
    """
    rows, cols = np.nonzero(synced)
    if rows.size == 0:
        return np.zeros((num_machines, num_machines), dtype=np.int64)
    masters = np.asarray(masters, dtype=np.int64)
    return np.bincount(
        masters[rows] * num_machines + cols,
        minlength=num_machines**2,
    ).reshape(num_machines, num_machines)


class MirrorSynchronizer:
    """Per-barrier randomized master-to-mirror synchronization.

    Parameters
    ----------
    state:
        The simulated cluster.
    ps:
        Probability of synchronizing each mirror (paper's ``ps``).
    rng:
        Source of the per-mirror coins.
    mirror_matrix:
        Optional prebuilt mirror bitmap (from :meth:`build_mirror_matrix`
        or the per-ingress cache of :meth:`shared_mirror_matrix`) shared
        across synchronizers running on the same cluster — the bitmap is
        the only per-instance O(n·machines) state.  Sharers of a plain
        (non-``copy_on_disable``) matrix observe each other's
        :meth:`disable_machine` calls; with ``copy_on_disable`` each
        synchronizer forks privately on its first disable, so machine
        crashes are per-run state (the fault runners of
        :mod:`repro.faults` fork the batched runner's bitmap the same
        way).
    copy_on_disable:
        Mark ``mirror_matrix`` as a read-shared structure (the
        per-ingress cache of :meth:`shared_mirror_matrix`): the first
        :meth:`disable_machine` call forks a private copy instead of
        mutating the shared bitmap, so fault injection in one run can
        never leak crashed machines into later runs on the same
        ingress.  Sharers of a *batch-local* matrix (the coupling
        described above) should leave this False.
    """

    def __init__(
        self,
        state: ClusterState,
        ps: float,
        rng: np.random.Generator,
        mirror_matrix: np.ndarray | None = None,
        copy_on_disable: bool = False,
    ) -> None:
        if not 0.0 <= ps <= 1.0:
            raise EngineError(f"ps must lie in [0, 1], got {ps}")
        self.state = state
        self.ps = ps
        self.rng = rng
        repl = state.replication
        self._masters = repl.masters
        self._replicas = repl.replica_matrix
        num_machines = state.num_machines
        if mirror_matrix is None:
            mirror_matrix = self.build_mirror_matrix(state)
        elif mirror_matrix.shape != repl.replica_matrix.shape:
            raise EngineError(
                "mirror_matrix shape does not match the cluster's "
                f"replica table: {mirror_matrix.shape} vs "
                f"{repl.replica_matrix.shape}"
            )
        # mirror_matrix[v, p]: machine p holds a *mirror* (non-master
        # replica) of vertex v.
        self._mirror_matrix = mirror_matrix
        self._copy_on_disable = copy_on_disable
        self._num_machines = num_machines

    @staticmethod
    def mirror_matrix_for(replication) -> np.ndarray:
        """Mirror bitmap of one replication table: replicas minus masters.

        The single definition of "mirror" shared by the lazy per-state
        build below and the live refresh pipeline's off-query-path cache
        pre-seeding (:func:`repro.core.frogwild.prime_ingress_caches`).
        """
        matrix = replication.replica_matrix.copy()
        matrix[np.arange(replication.masters.size), replication.masters] = False
        return matrix

    @classmethod
    def build_mirror_matrix(cls, state: ClusterState) -> np.ndarray:
        """Mirror bitmap of the cluster: replicas minus masters."""
        return cls.mirror_matrix_for(state.replication)

    @classmethod
    def shared_mirror_matrix(cls, state: ClusterState) -> np.ndarray:
        """The per-ingress cached mirror bitmap (built once, reused).

        Pass the result as ``mirror_matrix`` together with
        ``copy_on_disable=True``: reads share the cached array across
        every run on the same ingress, while :meth:`disable_machine`
        forks a private copy before writing.
        """
        return state.ingress_cache(
            "mirror_matrix", lambda: cls.build_mirror_matrix(state)
        )

    def draw_fresh(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flip the sync coins for ``vertices`` without any accounting.

        Returns ``(fresh, synced_mirrors)``: ``fresh`` marks machines
        whose replica is fresh after the barrier (master always, each
        mirror with probability ``ps``); ``synced_mirrors`` is the
        mirror-only subset that a caller must account for (one sync
        record each).  :meth:`synchronize` is this plus the accounting;
        the batched runner uses the split to aggregate records across
        populations before charging the fabric.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        k = vertices.size
        mirrors = self._mirror_matrix[vertices]
        if self.ps >= 1.0:
            synced_mirrors = mirrors.copy()
        elif self.ps <= 0.0:
            synced_mirrors = np.zeros_like(mirrors)
        else:
            coins = self.rng.random((k, self._num_machines)) < self.ps
            synced_mirrors = mirrors & coins

        fresh = synced_mirrors.copy()
        if k:
            fresh[np.arange(k), self._masters[vertices]] = True
        return fresh, synced_mirrors

    def synchronize(self, vertices: np.ndarray) -> np.ndarray:
        """Synchronize the mirrors of ``vertices``; returns fresh-replica map.

        The result is a boolean matrix of shape ``(len(vertices),
        num_machines)`` marking machines whose replica of the vertex is
        fresh after the barrier: the master always, each mirror with
        probability ``ps``.  One sync record per synchronized mirror is
        charged to the network, batched per machine pair.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        fresh, synced_mirrors = self.draw_fresh(vertices)
        self._account(vertices, synced_mirrors)
        return fresh

    def disable_machine(self, machine: int) -> None:
        """Permanently exclude a machine's mirrors from synchronization.

        Used by fault injection (:mod:`repro.faults`): a crashed machine
        stops receiving master updates, so its replicas can never be
        fresh again and the scatter phase routes around it.
        """
        if not 0 <= machine < self._num_machines:
            raise EngineError(
                f"machine {machine} out of range [0, {self._num_machines})"
            )
        if self._copy_on_disable:
            self._mirror_matrix = self._mirror_matrix.copy()
            self._copy_on_disable = False
        self._mirror_matrix[:, machine] = False

    def force_sync(self, vertices: np.ndarray, machines: np.ndarray) -> None:
        """Synchronize one extra (vertex, mirror) pair each — erasure repair.

        Used by the "At Least One Out-Edge Per Node" model (Example 10):
        when every mirror coin failed for a vertex that must scatter, one
        uniformly chosen mirror is synchronized after all.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        machines = np.asarray(machines, dtype=np.int64)
        if vertices.shape != machines.shape:
            raise EngineError("vertices/machines misaligned in force_sync")
        if vertices.size == 0:
            return
        extra = np.zeros((vertices.size, self._num_machines), dtype=bool)
        extra[np.arange(vertices.size), machines] = True
        # Master-hosted groups need no sync; don't bill them.
        extra[machines == self._masters[vertices]] = False
        self._account(vertices, extra)

    def _account(self, vertices: np.ndarray, synced: np.ndarray) -> None:
        """Charge sync records (master -> mirror) batched per machine pair."""
        if vertices.size == 0 or not synced.any():
            return
        state = self.state
        records = sync_pair_records(
            self._masters[vertices], synced, self._num_machines
        )
        state.send_pair_matrix(records, kind="sync")
        state.charge_many(records.sum(axis=0), phase="sync")
