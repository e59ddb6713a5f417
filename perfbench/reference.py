"""Reference answers the benchmark checks the program against."""

from __future__ import annotations

import numpy as np

from repro.metrics import optimal_mass
from repro.pagerank.exact import pagerank_operator


def exact_ppr(graph, seed_sets, p_teleport=0.15, tolerance=1e-10):
    """Exact personalized PageRank of several seed sets at once.

    The power iteration of :func:`repro.exact_pagerank` with a uniform
    teleport over each seed set, run on all columns together; returns
    an ``(n, len(seed_sets))`` array whose columns sum to one.
    """
    n = graph.num_vertices
    teleport = np.zeros((n, len(seed_sets)))
    for column, seeds in enumerate(seed_sets):
        seeds = np.asarray(seeds, dtype=np.int64)
        teleport[seeds, column] = 1.0 / seeds.size
    operator = pagerank_operator(graph)
    dangling = np.asarray(graph.out_degree()) == 0
    pi = teleport.copy()
    for _ in range(1000):
        spread = operator @ pi
        if dangling.any():
            spread += pi[dangling].sum(axis=0) * teleport
        new_pi = (1.0 - p_teleport) * spread + p_teleport * teleport
        residual = np.abs(new_pi - pi).sum(axis=0).max()
        pi = new_pi
        if residual < tolerance:
            return pi
    raise RuntimeError("reference power iteration did not converge")


def answer_mass(vertices, truth, k: int) -> float:
    """True mass of an answer's first ``k`` vertices over the best k-set."""
    return float(truth[np.asarray(vertices[:k])].sum() / optimal_mass(truth, k))
