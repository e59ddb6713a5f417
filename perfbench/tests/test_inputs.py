"""Inputs and arrival schedules are a pure function of the seed."""

import numpy as np

from tiny import TinyGlobal, TinyInproc, TinyLive, TinyZipf


def graph_key(graph):
    return graph.indptr.tobytes() + graph.indices.tobytes()


def batch_key(queries):
    return [(q.seeds, q.k) for q in queries]


def schedule_key(events):
    return [(e.time_s, e.user_id, e.query.seeds) for e in events]


def test_graphs_follow_the_seed():
    assert graph_key(TinyGlobal(3).graph) == graph_key(TinyGlobal(3).graph)
    assert graph_key(TinyGlobal(3).graph) != graph_key(TinyGlobal(4).graph)


def test_query_batches_follow_the_seed():
    a, b, c = TinyInproc(3), TinyInproc(3), TinyInproc(4)
    for index in range(3):
        assert batch_key(a.batch(index)) == batch_key(b.batch(index))
        assert batch_key(a.batch(index)) != batch_key(c.batch(index))
    queries = a.batch(0)
    assert len({q.seeds for q in queries}) == len(queries)


def test_arrival_schedules_follow_the_seed():
    a, b, c = TinyZipf(3), TinyZipf(3), TinyZipf(4)
    for phase, rate in enumerate(a.RATES.values()):
        same = schedule_key(a.population.schedule(rate, phase, 2.0))
        assert same == schedule_key(b.population.schedule(rate, phase, 2.0))
        assert same != schedule_key(c.population.schedule(rate, phase, 2.0))
        assert same, "an empty schedule proves nothing"


def test_live_reads_and_churn_follow_the_seed():
    a, b, c = TinyLive(3), TinyLive(3), TinyLive(4)
    assert batch_key(a.population.batch(5, 4)) == batch_key(b.population.batch(5, 4))
    assert batch_key(a.population.batch(5, 4)) != batch_key(c.population.batch(5, 4))
    deltas = []
    for workload in (a, b, c):
        source, churn = workload.prepare(), workload.churn()
        delta = churn.step(source)
        deltas.append(np.concatenate([delta.added.ravel(), delta.removed.ravel()]))
    assert np.array_equal(deltas[0], deltas[1])
    assert not np.array_equal(deltas[0], deltas[2])
