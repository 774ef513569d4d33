"""Tests for the span tracer: nesting, propagation, event attribution."""

import pytest

from repro.obs.trace import NOOP_SPAN, Tracer, null_tracer
from repro.tertiary import SimClock


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def tracer(clock: SimClock) -> Tracer:
    return Tracer(clock=clock, enabled=True)


class TestNesting:
    def test_children_attach_to_enclosing_span(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner in outer.children
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_roots_retained_in_finish_order(self, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_current_tracks_innermost(self, tracer):
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_walk_is_depth_first(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        root = tracer.roots[0]
        assert [s.name for s in root.walk()] == ["a", "b", "c", "d"]

    def test_exception_still_finishes_span(self, tracer):
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.roots[0].finished

    def test_root_retention_is_bounded(self, clock):
        tracer = Tracer(clock=clock, enabled=True, max_finished=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [r.name for r in tracer.roots] == ["s3", "s4"]
        assert tracer.dropped_roots == 3


class TestDisabled:
    def test_disabled_tracer_hands_out_shared_noop(self):
        tracer = Tracer(enabled=False)
        with tracer.span("anything") as span:
            assert span is NOOP_SPAN
        assert tracer.roots == []

    def test_noop_span_is_inert(self):
        NOOP_SPAN.set(irrelevant=1)
        assert NOOP_SPAN.virtual_elapsed == 0.0
        assert NOOP_SPAN.count("load") == 0
        assert NOOP_SPAN.aggregate() == {}
        assert list(NOOP_SPAN.walk()) == []

    def test_null_tracer_is_disabled(self):
        with null_tracer.span("x") as span:
            assert span is NOOP_SPAN


class TestAttribution:
    def test_span_window_captures_only_its_events(self, clock, tracer):
        clock.charge(1.0, "seek", "drive0")
        with tracer.span("windowed") as span:
            clock.charge(2.0, "read", "drive0", nbytes=10)
        clock.charge(4.0, "seek", "drive0")
        assert span.virtual_elapsed == pytest.approx(2.0)
        assert span.count("read") == 1
        assert span.count("seek") == 0
        assert span.bytes_in("read") == 10
        assert span.time_in("read") == pytest.approx(2.0)

    def test_self_aggregate_excludes_children(self, clock, tracer):
        with tracer.span("parent") as parent:
            clock.charge(1.0, "seek", "drive0")
            with tracer.span("child") as child:
                clock.charge(2.0, "read", "drive0")
            clock.charge(3.0, "seek", "drive0")
        assert parent.time_in("read") == pytest.approx(2.0)  # whole window
        own = parent.self_aggregate()
        assert "read" not in own
        assert own["seek"].seconds == pytest.approx(4.0)
        assert child.self_aggregate()["read"].seconds == pytest.approx(2.0)

    def test_children_virtual_time_sums_to_parent(self, clock, tracer):
        with tracer.span("parent") as parent:
            for _ in range(3):
                with tracer.span("child"):
                    clock.charge(1.5, "read", "drive0")
        child_sum = sum(c.virtual_elapsed for c in parent.children)
        assert child_sum == pytest.approx(parent.virtual_elapsed)

    def test_attributes_via_kwargs_and_set(self, tracer):
        with tracer.span("s", colour="red") as span:
            span.set(size=4)
        assert span.attributes == {"colour": "red", "size": 4}

    def test_to_dict_shape(self, clock, tracer):
        with tracer.span("s"):
            clock.charge(1.0, "read", "drive0", nbytes=8)
        record = tracer.roots[0].to_dict()
        assert record["name"] == "s"
        assert record["parent_id"] is None
        assert record["virtual_elapsed_s"] == pytest.approx(1.0)
        assert record["breakdown"]["read"]["bytes"] == 8

    def test_clear_drops_roots(self, tracer):
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.roots == []
        assert tracer.dropped_roots == 0
