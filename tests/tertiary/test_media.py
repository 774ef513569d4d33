"""Tests for media: allocation map, append-only semantics, payloads."""

import pytest

from repro.errors import MediumFullError, SegmentNotFoundError
from repro.tertiary import DLT_7000, MB, Medium, MediumStats, scaled_profile

SMALL = scaled_profile(DLT_7000, 10 * MB)


@pytest.fixture
def medium() -> Medium:
    return Medium("t0", SMALL)


class TestAppend:
    def test_appends_are_sequential(self, medium):
        a = medium.append("a", 100)
        b = medium.append("b", 200)
        assert a.offset == 0
        assert b.offset == 100
        assert medium.write_position == 300

    def test_payload_kept_when_retained(self, medium):
        medium.append("a", 5, payload=b"hello")
        assert medium.payload("a") == b"hello"

    def test_size_only_segment_has_no_payload(self, medium):
        medium.append("a", 5)
        assert medium.payload("a") is None
        assert medium.segment("a").length == 5

    def test_payload_length_must_match(self, medium):
        with pytest.raises(ValueError):
            medium.append("a", 10, payload=b"short")

    def test_duplicate_name_rejected(self, medium):
        medium.append("a", 10)
        with pytest.raises(ValueError):
            medium.append("a", 10)

    def test_overflow_raises_medium_full(self, medium):
        with pytest.raises(MediumFullError):
            medium.append("big", SMALL.media_capacity_bytes + 1)

    def test_exact_fill_allowed(self, medium):
        medium.append("exact", medium.capacity)
        assert medium.free_bytes == 0


class TestSegments:
    def test_lookup_unknown_raises(self, medium):
        with pytest.raises(SegmentNotFoundError):
            medium.segment("nope")

    def test_segments_in_physical_order(self, medium):
        medium.append("z", 10)
        medium.append("a", 20)
        names = [s.name for s in medium.segments()]
        assert names == ["z", "a"]

    def test_segment_end(self, medium):
        seg = medium.append("a", 10)
        assert seg.end == 10

    def test_delete_frees_name_not_space(self, medium):
        medium.append("a", 100)
        medium.delete("a")
        assert not medium.has_segment("a")
        assert medium.write_position == 100  # tape space not reclaimed
        medium.append("a", 50)  # name reusable
        assert medium.segment("a").offset == 100

    def test_iteration_and_len(self, medium):
        medium.append("a", 1)
        medium.append("b", 2)
        assert len(medium) == 2
        assert [s.length for s in medium] == [1, 2]


class TestStats:
    def test_fill_ratio(self, medium):
        medium.append("a", medium.capacity // 2)
        stats = MediumStats.of(medium)
        assert stats.used_bytes / stats.capacity == pytest.approx(0.5)
        assert stats.segments == 1
