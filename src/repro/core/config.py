"""Configuration for FrogWild runs.

Mirrors the paper's input parameters (vertex program, Section 2.2):
``ps`` (mirror sync probability), ``p_T = 0.15`` (teleport/death
probability) and ``t`` (iteration cut-off), plus the number of frogs N
and the implementation choices discussed in Sections 2.2 and 3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigError

__all__ = ["FrogWildConfig", "RefreshPolicy"]

_SCATTER_MODES = ("multinomial", "binomial")
_ERASURE_MODELS = ("at-least-one", "independent")
_SYNC_MODES = ("per-lane", "shared")


@dataclass(frozen=True)
class FrogWildConfig:
    """Parameters of one FrogWild execution.

    Attributes
    ----------
    num_frogs:
        N — initial random walkers, placed uniformly at random.  The
        paper uses 800K on graphs of 4.8M–41.6M vertices; Remark 6 gives
        the scaling ``N = O(k / mu_k(pi)^2)``.
    iterations:
        t — supersteps before every surviving frog is stopped and
        counted.  The paper finds 3–5 sufficient (Figures 3, 6).
    ps:
        Probability that each mirror synchronizes per barrier;
        ``ps = 1`` is stock PowerGraph.
    p_teleport:
        p_T — per-step death probability realizing the teleportation
        component (0.15 throughout the paper).
    scatter_mode:
        ``"multinomial"`` (default) conserves frogs exactly, matching the
        implementation note in Section 2.2; ``"binomial"`` reproduces the
        pseudocode literally (Bin(K, 1/(d_out ps)) per enabled edge,
        conserving frogs only in expectation).
    erasure_model:
        ``"at-least-one"`` (default, Example 10 — used in the paper's
        experiments) re-enables one uniformly chosen mirror when all
        coins fail for a vertex holding frogs; ``"independent"``
        (Example 9) lets such frogs idle in place for the step.
    seed:
        Seed for all run randomness (placement, deaths, coins, hops).
    sync_mode:
        Batched-execution sync-coin sharing.  ``"per-lane"`` (default)
        flips the paper's ``ps`` coins independently per frog
        population, which keeps every lane bitwise-identical to its
        standalone run and allows per-query ``ps``.  ``"shared"``
        flips **one** coin stream for the whole batch: each barrier
        emits exactly one sync record per (vertex, mirror) regardless
        of the batch size — the remaining sync traffic is ~1/B of
        per-lane mode on overlapping frontiers — at the price of
        cross-query estimator correlation (the erasure processes of
        the populations are no longer independent; Lemma 18's variance
        argument applies per query but errors now co-fluctuate).
        The single-query :class:`~repro.core.FrogWildRunner` facade
        forces ``"per-lane"``.  Shared coins come from a dedicated
        batch-level stream: even a B=1 batch samples different (equally
        valid) coins than per-lane mode under the same seed — the
        bitwise B=1 equivalence with the single-query runner holds in
        the default mode only.
    wire_dedupe:
        When True, frog records of different populations addressed to
        the same (hosting machine, destination vertex) in one superstep
        travel as **one** physical wire record (the shared record
        carries per-lane counts; the simulator bills one record).  The
        physical record count is attributed back to the lanes
        proportionally to the records each would have sent alone, using
        exact largest-remainder apportionment, so per-lane attributed
        records always sum to the physical count.  Only affects batched
        execution; a single population already combines its own frogs
        (the :class:`~repro.core.FrogWildRunner` facade forces False).

    Notes
    -----
    Kernel-tier selection (``"fused"`` / the Numba ``"compiled"``
    tier) is deliberately *not* a config field: the
    tiers are bitwise-identical implementations of the same semantics,
    so the choice is an execution detail carried by the ``kernel=``
    kwarg of the runner and the serving backends (see
    :mod:`repro.core.kernels`), never something that could change a
    result between two runs of one config.
    """

    num_frogs: int = 10_000
    iterations: int = 4
    ps: float = 1.0
    p_teleport: float = 0.15
    scatter_mode: str = "multinomial"
    erasure_model: str = "at-least-one"
    seed: int | None = 0
    sync_mode: str = "per-lane"
    wire_dedupe: bool = False

    def __post_init__(self) -> None:
        if self.num_frogs < 1:
            raise ConfigError("num_frogs must be positive")
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if not 0.0 <= self.ps <= 1.0:
            raise ConfigError(f"ps must lie in [0, 1], got {self.ps}")
        if not 0.0 < self.p_teleport < 1.0:
            raise ConfigError(
                f"p_teleport must lie in (0, 1), got {self.p_teleport}"
            )
        if self.scatter_mode not in _SCATTER_MODES:
            raise ConfigError(
                f"scatter_mode must be one of {_SCATTER_MODES}, "
                f"got {self.scatter_mode!r}"
            )
        if self.erasure_model not in _ERASURE_MODELS:
            raise ConfigError(
                f"erasure_model must be one of {_ERASURE_MODELS}, "
                f"got {self.erasure_model!r}"
            )
        if self.sync_mode not in _SYNC_MODES:
            raise ConfigError(
                f"sync_mode must be one of {_SYNC_MODES}, "
                f"got {self.sync_mode!r}"
            )

    def with_updates(self, **changes) -> "FrogWildConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RefreshPolicy:
    """How a live service turns graph churn into published epochs.

    Consumed by :class:`~repro.live.IncrementalReplication` (table
    maintenance) and :class:`~repro.live.BackgroundRefresher` (the
    off-query-path pipeline).

    Attributes
    ----------
    full_rebuild_fraction:
        When a refresh's *projected regroup work* — the incident edges
        of every vertex the placement diff touched, the real cost
        driver of a table patch — exceeds this fraction of a
        from-scratch build's regroup work (twice the edge count: both
        grouping directions), the replication tables are rebuilt from
        scratch instead of patched.  The gate deliberately counts
        incident edges rather than changed keys: on power-law graphs a
        few churned hub edges touch hubs owning most of the edge set,
        and past this point the from-scratch build's single radix sort
        beats sorting nearly everything piecewise.  ``1.0`` always
        patches; ``0.0`` rebuilds on any change (the pre-incremental
        behavior).
    coalesce:
        Whether the background refresher may cover several queued deltas
        with one epoch build when deltas arrive faster than builds
        complete.  With ``False`` every delta gets its own epoch, at the
        price of an ever-growing build queue under sustained churn.
    max_pending:
        Bound on queued-but-unbuilt background deltas; a submit beyond
        it blocks until the worker drains (*backpressure*, not data
        loss).  ``None`` leaves the queue unbounded.
    """

    full_rebuild_fraction: float = 0.25
    coalesce: bool = True
    max_pending: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.full_rebuild_fraction <= 1.0:
            raise ConfigError(
                "full_rebuild_fraction must lie in [0, 1], got "
                f"{self.full_rebuild_fraction}"
            )
        if self.max_pending is not None and self.max_pending < 1:
            raise ConfigError("max_pending must be positive (or None)")
