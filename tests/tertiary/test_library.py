"""Tests for the robot and the automated tape library."""

import pytest

from repro.errors import MediumFullError, MediumNotFoundError, SegmentNotFoundError
from repro.tertiary import DLT_7000, MB, SimClock, TapeLibrary, scaled_profile

PROFILE = scaled_profile(DLT_7000, 50 * MB)


@pytest.fixture
def library():
    return TapeLibrary(PROFILE, num_drives=2)


class TestMediaManagement:
    def test_new_medium_auto_id(self, library):
        a = library.new_medium()
        b = library.new_medium()
        assert a.medium_id != b.medium_id
        assert len(library.media()) == 2

    def test_duplicate_id_rejected(self, library):
        library.new_medium("x")
        with pytest.raises(ValueError):
            library.new_medium("x")

    def test_unknown_medium_raises(self, library):
        with pytest.raises(MediumNotFoundError):
            library.medium("ghost")

    def test_allocate_creates_when_needed(self, library):
        medium = library.allocate_medium(10 * MB)
        assert medium.fits(10 * MB)

    def test_allocate_prefers_partially_filled(self, library):
        library.write_segment("a", 10 * MB)
        first = library.media()[0]
        medium = library.allocate_medium(10 * MB)
        assert medium is first

    def test_allocate_rejects_oversized_segment(self, library):
        with pytest.raises(MediumFullError):
            library.allocate_medium(PROFILE.media_capacity_bytes + 1)

    def test_allocation_spills_to_new_medium(self, library):
        library.write_segment("a", 40 * MB)
        library.write_segment("b", 40 * MB)  # does not fit on first medium
        assert len(library.media()) == 2


class TestMounting:
    def test_mount_uses_free_drive(self, library):
        m0 = library.new_medium()
        m1 = library.new_medium()
        d0 = library.mount(m0.medium_id)
        d1 = library.mount(m1.medium_id)
        assert d0 is not d1
        assert library.robot.stats.exchanges == 2

    def test_mount_already_mounted_is_free(self, library):
        m0 = library.new_medium()
        library.mount(m0.medium_id)
        before = library.clock.now
        library.mount(m0.medium_id)
        assert library.clock.now == before
        assert library.robot.stats.exchanges == 1

    def test_lru_drive_recycled_when_all_busy(self, library):
        media = [library.new_medium() for _ in range(3)]
        library.mount(media[0].medium_id)
        library.mount(media[1].medium_id)
        library.mount(media[2].medium_id)  # evicts medium 0 (LRU)
        assert library.mounted_drive(media[0].medium_id) is None
        assert library.mounted_drive(media[2].medium_id) is not None

    def test_unmount_all(self, library):
        library.mount(library.new_medium().medium_id)
        library.unmount_all()
        assert all(not d.loaded for d in library.drives)

    def test_requires_at_least_one_drive(self):
        with pytest.raises(ValueError):
            TapeLibrary(PROFILE, num_drives=0)


class TestSegmentIO:
    def test_write_read_roundtrip(self, library):
        payload = b"x" * 1024
        medium_id, segment = library.write_segment("seg", 1024, payload=payload)
        assert segment.length == 1024
        assert library.read_segment("seg") == payload

    def test_directory_locates_segment(self, library):
        medium_id, _ = library.write_segment("seg", 10)
        assert library.locate("seg") == medium_id
        assert library.has_segment("seg")

    def test_duplicate_segment_name_rejected(self, library):
        library.write_segment("seg", 10)
        with pytest.raises(ValueError):
            library.write_segment("seg", 10)

    def test_delete_segment(self, library):
        library.write_segment("seg", 10)
        library.delete_segment("seg")
        assert not library.has_segment("seg")
        with pytest.raises(SegmentNotFoundError):
            library.locate("seg")

    def test_explicit_medium_target(self, library):
        target = library.new_medium("tgt")
        medium_id, _ = library.write_segment("seg", 10, medium_id="tgt")
        assert medium_id == "tgt"
        assert target.has_segment("seg")

    def test_read_extent_charges_transfer(self, library):
        library.write_segment("seg", 10 * MB)
        before = library.stats().bytes_read
        library.read_extent(library.locate("seg"), 0, 4 * MB)
        assert library.stats().bytes_read - before == 4 * MB


class TestStats:
    def test_stats_track_exchanges_and_bytes(self, library):
        library.write_segment("a", MB, payload=None)
        library.read_segment("a")
        stats = library.stats()
        assert stats.exchanges >= 1
        assert stats.bytes_written == MB
        assert stats.bytes_read == MB
        assert stats.time_exchanging_s + stats.time_seeking_s + stats.time_transferring_s > 0

    def test_media_stats(self, library):
        library.write_segment("a", MB)
        stats = library.media_stats()
        assert len(stats) == 1
        assert stats[0].used_bytes == MB
