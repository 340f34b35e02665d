"""Self-time arithmetic of the benchmark's span recorder."""

import pytest

from harness import SpanRecorder, covered, spread


def test_covered_merges_overlaps_and_clips_to_the_window():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    # overlapping and nested intervals count once
    assert covered([(1.0, 4.0), (2.0, 5.0), (2.5, 3.0)], 0.0, 10.0) == (
        pytest.approx(4.0)
    )
    # touching intervals join without double counting
    assert covered([(1.0, 2.0), (2.0, 3.0)], 0.0, 10.0) == pytest.approx(2.0)
    # parts outside [lo, hi] do not count, intervals fully outside vanish
    assert covered([(-5.0, 1.0), (9.0, 15.0), (20.0, 30.0)], 0.0, 10.0) == (
        pytest.approx(2.0)
    )


def test_self_time_is_duration_minus_children_union():
    rec = SpanRecorder()
    root = rec.record("root", 0.0, 10.0)
    rec.record("a", 1.0, 4.0, parent=root)
    rec.record("b", 3.0, 6.0, parent=root)  # overlaps a by one second
    assert rec.self_times()[root] == pytest.approx(10.0 - 5.0)


def test_grandchildren_only_reduce_their_own_parent():
    rec = SpanRecorder()
    root = rec.record("root", 0.0, 10.0)
    child = rec.record("child", 2.0, 6.0, parent=root)
    rec.record("grandchild", 3.0, 5.0, parent=child)
    own = rec.self_times()
    assert own[root] == pytest.approx(6.0)
    assert own[child] == pytest.approx(2.0)
    assert own[2] == pytest.approx(2.0)  # a leaf's self time is its duration


def test_child_outside_parent_is_clipped():
    rec = SpanRecorder()
    root = rec.record("root", 0.0, 4.0)
    rec.record("late child", 3.0, 9.0, parent=root)
    assert rec.self_times()[root] == pytest.approx(3.0)


def test_nested_span_calls_link_parent_and_request():
    rec = SpanRecorder()
    with rec.span("outer", request=7):
        with rec.span("inner", request=7):
            pass
    outer, inner = rec.spans
    assert inner.parent == outer.sid and outer.parent is None
    assert inner.request == outer.request == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    grouped = rec.by_name()
    assert set(grouped) == {"outer", "inner"}
    duration, own = grouped["outer"][0]
    assert own == pytest.approx(duration - inner.duration)


def test_disabled_recorder_times_but_records_nothing():
    rec = SpanRecorder(enabled=False)
    with rec.span("ignored") as span:
        pass
    assert 0.0 < span.start <= span.end and span.duration >= 0.0
    assert rec.record("ignored", 0.0, 1.0) is None
    assert rec.spans == [] and rec.self_times() == []


def test_span_yields_the_stored_span():
    rec = SpanRecorder()
    with rec.span("outer") as outer:
        with rec.span("inner") as inner:
            pass
    assert rec.spans == [outer, inner]
    assert outer.duration >= inner.duration >= 0.0


def test_spread_is_interquartile_distance_over_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(
        (11.5 - 8.5) / 10.0
    )
