"""Span arithmetic and reversible wrappers."""

import types

import pytest

from spans import Patcher, Span, SpanRecorder, coverage, covered_ns, self_times


def span(span_id, start, end, parent=None):
    return Span(span_id, f"s{span_id}", start, end, parent, request_id=0)


def test_self_time_subtracts_children_once():
    spans = [
        span(0, 0, 100),
        span(1, 10, 40, parent=0),
        span(2, 30, 60, parent=0),  # overlaps its sibling by 10
        span(3, 15, 25, parent=1),
        span(4, 70, 80, parent=0),
    ]
    own = self_times(spans)
    assert own[0] == 100 - (60 - 10) - (80 - 70)
    assert own[1] == 30 - 10
    assert own[2] == 30
    assert own[3] == 10
    assert own[4] == 10


def test_covered_ns_is_the_union_length():
    assert covered_ns([]) == 0
    assert covered_ns([(0, 10), (5, 20), (30, 40)]) == 30
    assert covered_ns([(30, 40), (0, 10)]) == 20


def test_coverage_counts_root_spans_clipped_to_the_window():
    spans = [span(0, 0, 50), span(1, 10, 20, parent=0), span(2, 80, 150)]
    assert coverage(spans, 0, 100) == pytest.approx(0.7)


def test_recorder_nests_spans_and_shares_request_ids():
    recorder = SpanRecorder()
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    other = recorder.open("other")
    recorder.close(other)
    assert inner.parent == outer.span_id
    assert outer.parent is None
    assert inner.request_id == outer.request_id != other.request_id
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns


class Thing:
    def value(self):
        return 1


def test_patcher_restores_module_class_and_instance_attributes():
    module = types.ModuleType("fake")
    module.func = lambda: 2
    original_func = module.func
    original_method = Thing.__dict__["value"]
    thing = Thing()
    recorder = SpanRecorder()
    with Patcher(recorder) as patcher:
        patcher.wrap(module, "func", "module")
        patcher.wrap(Thing, "value", "class")
        patcher.wrap(thing, "value", "instance")
        assert module.func() == 2
        assert thing.value() == 1
    assert module.func is original_func
    assert Thing.__dict__["value"] is original_method
    assert "value" not in vars(thing)
    names = [s.name for s in recorder.spans]
    assert names == ["module", "class", "instance"]
    # The instance wrapper called the class wrapper: nested spans.
    class_span, instance_span = recorder.spans[1], recorder.spans[2]
    assert class_span.parent == instance_span.span_id
