"""Property-based tests (hypothesis) for the extension subsystems:
dynamic graphs, forward push, chart scales, ranking metrics and the
stable hash ingress."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.core import top_k_jaccard
from repro.dynamic import DynamicDiGraph, GraphDelta, stable_hash_partition
from repro.graph import from_edges
from repro.metrics import ndcg_at_k, rank_biased_overlap
from repro.pagerank import forward_push_pagerank
from repro.viz import LinearScale, LogScale

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)),
    min_size=1,
    max_size=80,
)

score_vectors = npst.arrays(
    np.float64,
    st.integers(3, 30),
    elements=st.floats(1e-6, 1.0),
)


# ---------------------------------------------------------------------------
# DynamicDiGraph invariants
# ---------------------------------------------------------------------------


@given(edge_lists, edge_lists)
@settings(max_examples=50, deadline=None)
def test_dynamic_add_then_remove_roundtrip(initial, extra):
    """Adding a batch and removing exactly what was new restores the
    original edge set."""
    graph = DynamicDiGraph(15, initial)
    before = graph.edge_keys().copy()
    fresh = [
        (u, v) for u, v in extra if not graph.has_edge(u, v)
    ]
    added = graph.add_edges(extra)
    assert added == len(set(fresh))
    removed = graph.remove_edges(fresh)
    assert removed == added
    assert np.array_equal(graph.edge_keys(), before)


@given(edge_lists)
@settings(max_examples=50, deadline=None)
def test_dynamic_snapshot_matches_edge_set(edges):
    graph = DynamicDiGraph(15, edges)
    snapshot = graph.snapshot(repair_dangling="none")
    assert snapshot.num_edges == graph.num_edges
    assert np.array_equal(snapshot.edge_keys(), graph.edge_keys())


@given(edge_lists, edge_lists)
@settings(max_examples=50, deadline=None)
def test_dynamic_apply_counts_are_consistent(initial, batch):
    graph = DynamicDiGraph(15, initial)
    m0 = graph.num_edges
    delta = GraphDelta(added=batch)
    added, removed = graph.apply(delta)
    assert removed == 0
    assert graph.num_edges == m0 + added


# ---------------------------------------------------------------------------
# Forward push invariants
# ---------------------------------------------------------------------------


@given(edge_lists, st.floats(1e-4, 1e-2))
@settings(max_examples=40, deadline=None)
def test_push_mass_conservation(edges, eps):
    graph = from_edges(edges)
    result = forward_push_pagerank(graph, eps=eps)
    total = result.estimate.sum() + result.residual.sum()
    assert abs(total - 1.0) < 1e-9
    assert result.estimate.min() >= 0
    assert result.residual.min() >= -1e-15


@given(edge_lists, st.integers(0, 14))
@settings(max_examples=40, deadline=None)
def test_push_personalized_seed_validity(edges, seed_vertex):
    graph = from_edges(edges, num_vertices=15)
    result = forward_push_pagerank(graph, eps=1e-3, source=seed_vertex)
    total = result.estimate.sum() + result.residual.sum()
    assert abs(total - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Chart scale invariants
# ---------------------------------------------------------------------------


@given(
    st.floats(-1e6, 1e6),
    st.floats(1e-6, 1e6),
    st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_linear_scale_projection_in_unit_interval(lo, span, frac):
    scale = LinearScale(lo, lo + span)
    value = lo + frac * span
    projected = float(scale.project(np.array([value]))[0])
    assert -1e-9 <= projected <= 1.0 + 1e-9


@given(st.floats(1e-6, 1e6), st.floats(1.01, 1e6))
@settings(max_examples=80, deadline=None)
def test_log_scale_monotone(lo, factor):
    scale = LogScale(lo, lo * factor)
    mid = lo * np.sqrt(factor)
    p_lo, p_mid, p_hi = scale.project(np.array([lo, mid, lo * factor]))
    assert p_lo <= p_mid <= p_hi
    assert abs(p_lo - 0.0) < 1e-6
    assert abs(p_hi - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# Ranking metric invariants
# ---------------------------------------------------------------------------


@given(score_vectors, st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_ndcg_bounded_and_reflexive(scores, k):
    assert ndcg_at_k(scores, scores, k) == 1.0
    noisy = scores[::-1].copy()
    value = ndcg_at_k(noisy, scores, k)
    assert 0.0 <= value <= 1.0 + 1e-9


@given(score_vectors, st.floats(0.05, 0.95))
@settings(max_examples=60, deadline=None)
def test_rbo_bounded_and_reflexive(scores, p):
    assert abs(rank_biased_overlap(scores, scores, p=p) - 1.0) < 1e-9
    other = np.roll(scores, 1)
    value = rank_biased_overlap(other, scores, p=p)
    assert 0.0 <= value <= 1.0


@given(
    st.lists(st.integers(0, 50), min_size=0, max_size=20),
    st.lists(st.integers(0, 50), min_size=0, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_topk_jaccard_bounds_and_symmetry(a, b):
    a_arr, b_arr = np.array(a), np.array(b)
    value = top_k_jaccard(a_arr, b_arr)
    assert 0.0 <= value <= 1.0
    assert value == top_k_jaccard(b_arr, a_arr)


# ---------------------------------------------------------------------------
# Stable hash ingress invariants
# ---------------------------------------------------------------------------


@given(edge_lists, st.integers(1, 8), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_stable_hash_placement_in_range_and_deterministic(
    edges, machines, seed
):
    graph = from_edges(edges)
    a = stable_hash_partition(graph, machines, seed=seed)
    b = stable_hash_partition(graph, machines, seed=seed)
    assert np.array_equal(a.edge_machine, b.edge_machine)
    assert a.edge_machine.min(initial=0) >= 0
    assert a.edge_machine.max(initial=0) < machines
