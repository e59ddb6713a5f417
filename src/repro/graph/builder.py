"""Incremental construction of :class:`~repro.graph.digraph.DiGraph`.

The paper assumes every vertex has at least one successor
(``d_out(j) > 0``, Section 2.1).  Real edge lists violate this, so the
builder offers the standard repairs used by PageRank systems:

* ``"self-loop"`` — dangling vertices get a self edge (GraphLab's choice
  for random-walk programs; a frog landing there stays until it dies).
* ``"uniform"`` — not materialized as n-1 edges; instead the builder
  refuses and directs the caller to the exact solver, which handles
  dangling mass analytically.
* ``"drop"`` — recursively remove dangling vertices (relabelling the
  survivors) until none remain.
* ``"none"`` — keep the graph as-is.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..arrays import sorted_unique
from ..errors import GraphError
from .digraph import DiGraph

__all__ = ["GraphBuilder", "from_edges"]

_REPAIRS = ("self-loop", "drop", "none")


class GraphBuilder:
    """Accumulates directed edges, then emits a deduplicated CSR graph.

    Parameters
    ----------
    num_vertices:
        Fix the vertex count up front.  When omitted the count is inferred
        as ``max vertex id + 1`` at build time.
    repair_dangling:
        One of ``"self-loop"``, ``"drop"``, ``"none"``; see module docs.
    """

    def __init__(
        self,
        num_vertices: int | None = None,
        repair_dangling: str = "self-loop",
    ) -> None:
        if repair_dangling not in _REPAIRS:
            raise GraphError(
                f"repair_dangling must be one of {_REPAIRS}, "
                f"got {repair_dangling!r}"
            )
        if num_vertices is not None and num_vertices < 0:
            raise GraphError("num_vertices must be non-negative")
        self._fixed_n = num_vertices
        self._repair = repair_dangling
        self._sources: list[np.ndarray] = []
        self._targets: list[np.ndarray] = []
        self._count = 0

    @property
    def num_pending_edges(self) -> int:
        """Edges added so far (before dedup)."""
        return self._count

    def add_edge(self, source: int, target: int) -> "GraphBuilder":
        """Add a single directed edge ``source -> target``."""
        return self.add_edges([(source, target)])

    def add_edges(
        self, edges: Iterable[tuple[int, int]] | np.ndarray
    ) -> "GraphBuilder":
        """Add a batch of directed edges.

        Accepts any iterable of ``(source, target)`` pairs or an
        ``(k, 2)`` integer array.  Returns ``self`` for chaining.
        """
        arr = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges),
            dtype=np.int64,
        )
        if arr.size == 0:
            return self
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError(f"edges must be (k, 2) pairs, got shape {arr.shape}")
        if arr.min() < 0:
            raise GraphError("vertex ids must be non-negative")
        self._sources.append(arr[:, 0].copy())
        self._targets.append(arr[:, 1].copy())
        self._count += arr.shape[0]
        return self

    def build(self) -> DiGraph:
        """Produce the immutable graph: dedup, sort, repair dangling."""
        if self._sources:
            src = np.concatenate(self._sources)
            dst = np.concatenate(self._targets)
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)

        n = self._infer_n(src, dst)
        src, dst = _dedup(src, dst, n)
        if self._repair == "self-loop":
            src, dst = _repair_self_loops(src, dst, n)
        elif self._repair == "drop":
            src, dst, n = _repair_drop(src, dst, n)
        return _to_csr(src, dst, n)

    def _infer_n(self, src: np.ndarray, dst: np.ndarray) -> int:
        observed = 0
        if src.size:
            observed = int(max(src.max(), dst.max())) + 1
        if self._fixed_n is None:
            return observed
        if observed > self._fixed_n:
            raise GraphError(
                f"edge references vertex {observed - 1} but "
                f"num_vertices={self._fixed_n}"
            )
        return self._fixed_n


def from_edges(
    edges: Iterable[tuple[int, int]] | np.ndarray,
    num_vertices: int | None = None,
    repair_dangling: str = "self-loop",
) -> DiGraph:
    """One-shot convenience wrapper around :class:`GraphBuilder`."""
    builder = GraphBuilder(num_vertices, repair_dangling)
    builder.add_edges(edges)
    return builder.build()


def _dedup(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort edges by (source, target) and drop exact duplicates."""
    if src.size == 0:
        return src, dst
    keys = src * n + dst
    keys = sorted_unique(keys)
    return keys // n, keys % n


def _repair_self_loops(
    src: np.ndarray, dst: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Append a self edge for every dangling vertex (keeps sorted order)."""
    out_deg = np.bincount(src, minlength=n)
    dangling = np.flatnonzero(out_deg == 0)
    if dangling.size == 0:
        return src, dst
    src = np.concatenate([src, dangling])
    dst = np.concatenate([dst, dangling])
    order = np.lexsort((dst, src))
    return src[order], dst[order]


def _repair_drop(
    src: np.ndarray, dst: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Iteratively delete dangling vertices and compact vertex ids."""
    keep_vertex = np.ones(n, dtype=bool)
    while True:
        out_deg = np.bincount(src, minlength=n)
        newly_dangling = keep_vertex & (out_deg == 0)
        if not newly_dangling.any():
            break
        keep_vertex &= ~newly_dangling
        edge_ok = keep_vertex[src] & keep_vertex[dst]
        src, dst = src[edge_ok], dst[edge_ok]
    relabel = np.cumsum(keep_vertex) - 1
    return relabel[src], relabel[dst], int(keep_vertex.sum())


def _to_csr(src: np.ndarray, dst: np.ndarray, n: int) -> DiGraph:
    counts = np.bincount(src, minlength=n) if src.size else np.zeros(n, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return DiGraph(indptr, dst, validate=False)
