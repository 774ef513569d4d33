"""Tests for the drive cost model: loads, seeks, transfers, settle penalty."""

import pytest

from repro.errors import StorageError
from repro.tertiary import DLT_7000, Drive, MB, Medium, SimClock, scaled_profile

PROFILE = scaled_profile(DLT_7000, 100 * MB)


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def drive(clock):
    return Drive("d0", PROFILE, clock)


@pytest.fixture
def medium():
    return Medium("t0", PROFILE)


class TestRepr:
    def test_fresh_medium_is_named(self, drive, medium):
        # a medium with no segments has len() 0 but is still loaded
        assert repr(drive) == "Drive('d0', medium=-, head=0)"
        drive.load(medium)
        assert len(medium) == 0
        assert repr(drive) == "Drive('d0', medium=t0, head=0)"


class TestLoadUnload:
    def test_load_charges_load_time(self, drive, medium, clock):
        drive.load(medium)
        assert clock.now == pytest.approx(PROFILE.load_time_s)
        assert drive.loaded
        assert medium.mount_count == 1

    def test_double_load_rejected(self, drive, medium):
        drive.load(medium)
        with pytest.raises(StorageError):
            drive.load(Medium("t1", PROFILE))

    def test_unload_rewinds_tape(self, drive, medium, clock):
        drive.load(medium)
        drive.seek(PROFILE.media_capacity_bytes // 2)
        before = clock.now
        drive.unload()
        # Rewind from the middle costs the mean access time again.
        assert clock.now - before == pytest.approx(PROFILE.avg_seek_time_s)
        assert not drive.loaded

    def test_unload_from_position_zero_is_free(self, drive, medium, clock):
        drive.load(medium)
        before = clock.now
        drive.unload()
        assert clock.now == before

    def test_unload_empty_drive_rejected(self, drive):
        with pytest.raises(StorageError):
            drive.unload()


class TestSeek:
    def test_seek_charges_linear_time(self, drive, medium, clock):
        drive.load(medium)
        before = clock.now
        drive.seek(PROFILE.media_capacity_bytes // 2)
        assert clock.now - before == pytest.approx(PROFILE.avg_seek_time_s)
        assert drive.head_position == PROFILE.media_capacity_bytes // 2

    def test_zero_distance_seek_free(self, drive, medium, clock):
        drive.load(medium)
        before = clock.now
        drive.seek(0)
        assert clock.now == before
        assert drive.stats.seeks == 0

    def test_seek_outside_capacity_rejected(self, drive, medium):
        drive.load(medium)
        with pytest.raises(StorageError):
            drive.seek(PROFILE.media_capacity_bytes + 1)

    def test_seek_without_medium_rejected(self, drive):
        with pytest.raises(StorageError):
            drive.seek(10)

    def test_backward_seek_costs_same_as_forward(self, drive, medium, clock):
        drive.load(medium)
        drive.seek(10 * MB)
        forward = clock.now
        drive.seek(5 * MB)
        assert clock.now - forward == pytest.approx(PROFILE.seek_time(5 * MB))


class TestReadWrite:
    def test_append_then_read_roundtrip(self, drive, medium):
        drive.load(medium)
        drive.append_segment("a", 4, payload=b"data")
        drive.seek(0)
        assert drive.read_segment("a") == b"data"

    def test_append_moves_head_to_end(self, drive, medium):
        drive.load(medium)
        drive.append_segment("a", 1000)
        assert drive.head_position == 1000

    def test_append_charges_settle_penalty(self, drive, medium, clock):
        drive.load(medium)
        before = clock.now
        drive.append_segment("a", PROFILE.transfer_rate_bps)  # 1 second of data
        elapsed = clock.now - before
        assert elapsed == pytest.approx(1.0 + PROFILE.stop_start_penalty_s)

    def test_many_small_appends_cost_more_than_one_big(self):
        clock_a = SimClock()
        drive_a = Drive("a", PROFILE, clock_a)
        drive_a.load(Medium("ta", PROFILE))
        for i in range(10):
            drive_a.append_segment(f"s{i}", MB)
        clock_b = SimClock()
        drive_b = Drive("b", PROFILE, clock_b)
        drive_b.load(Medium("tb", PROFILE))
        drive_b.append_segment("big", 10 * MB)
        assert clock_a.now > clock_b.now

    def test_read_extent_charges_seek_plus_transfer(self, drive, medium, clock):
        drive.load(medium)
        drive.append_segment("a", 10 * MB)
        drive.seek(0)
        before = clock.now
        drive.read_extent(5 * MB, 2 * MB)
        expected = PROFILE.seek_time(5 * MB) + PROFILE.transfer_time(2 * MB)
        assert clock.now - before == pytest.approx(expected)

    def test_stats_accumulate(self, drive, medium):
        drive.load(medium)
        drive.append_segment("a", MB)
        drive.seek(0)
        drive.read_segment("a")
        assert drive.stats.bytes_written == MB
        assert drive.stats.bytes_read == MB
        assert drive.stats.loads == 1
        assert drive.stats.busy_time_s > 0
