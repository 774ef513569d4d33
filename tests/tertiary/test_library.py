"""Tests for the robot and the automated tape library."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.export import TCTExporter
from repro.errors import (
    MediumFullError,
    MediumNotFoundError,
    SegmentNotFoundError,
    StorageError,
)
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


class TestErase:
    """A medium whose last live segment is deleted is erased: its dead
    space takes the next append instead of a fresh medium."""

    def test_deleting_the_last_live_segment_erases_the_medium(self, library):
        medium_id, _ = library.write_segment("a", 10 * MB)
        library.write_segment("b", 5 * MB)
        medium = library.medium(medium_id)
        library.delete_segment("a")
        assert medium.write_position == 15 * MB  # partial delete: dead space stays
        assert library.stats().media_erased == 0
        library.delete_segment("b")
        assert medium.write_position == 0 and medium.free_bytes == medium.capacity
        stats = library.stats()
        assert (stats.media_erased, stats.bytes_reclaimed) == (1, 15 * MB)
        assert [m.medium_id for m in library.media()] == [medium_id]
        _, segment = library.write_segment("c", 40 * MB)
        assert library.locate("c") == medium_id and segment.offset == 0
        assert len(library.media()) == 1

    def test_erase_refuses_a_medium_with_live_segments(self, library):
        medium = library.new_medium()
        medium.append("a", MB)
        with pytest.raises(StorageError):
            medium.erase()
        assert medium.write_position == MB

    def test_bad_spots_and_mount_count_survive_an_erase(self, library):
        medium_id, _ = library.write_segment("a", 10 * MB)
        medium = library.medium(medium_id)
        spot = medium.add_bad_spot(2 * MB, 1024, transient=False)
        mounts = medium.mount_count
        library.delete_segment("a")
        assert medium.write_position == 0
        assert medium.bad_spots == [spot]
        assert medium.mount_count == mounts >= 1
        assert library.media()[0] is medium

    def test_an_erased_loaded_cartridge_takes_the_next_append(self, library):
        library.new_medium("a").append("old", 45 * MB)  # full, on the shelf
        library.new_medium("b")
        library.write_segment("s", 45 * MB, medium_id="b")
        library.delete_segment("s")
        assert library.mounted_drive("b") is not None
        # Without the erase neither medium would fit 40 MB and a fresh one
        # would be mounted; the erased "b" is in a drive, so no exchange.
        assert library.append_target(40 * MB) == "b"
        exchanges = library.robot.stats.exchanges
        medium_id, segment = library.write_segment("fresh", 40 * MB)
        assert (medium_id, segment.offset) == ("b", 0)
        assert library.robot.stats.exchanges == exchanges

    def test_an_aborted_journal_on_a_fresh_medium_leaves_it_erased(self, library):
        exporter = TCTExporter(None, library)
        with pytest.raises(RuntimeError):
            with exporter.journal("obj") as write:
                medium_id = write("obj/st0", 10 * MB, None)
                write("obj/st1", 10 * MB, None)
                raise RuntimeError("write failed")
        medium = library.medium(medium_id)
        assert len(medium) == 0 and medium.write_position == 0
        assert not library.has_segment("obj/st0") and not library.has_segment("obj/st1")
        assert library.stats().media_erased == 1


def append_delete_programs():
    """Sequences of ``("write", KiB)`` and ``("delete", pick)`` steps; a
    delete retires the live segment at ``pick`` modulo the live count."""
    step = st.one_of(
        st.tuples(st.just("write"), st.integers(1, 400)),
        st.tuples(st.just("delete"), st.integers(0, 1000)),
    )
    return st.lists(step, min_size=1, max_size=60)


class TestEraseProperties:
    @given(append_delete_programs())
    @settings(max_examples=60, deadline=None)
    def test_random_appends_and_deletes_keep_the_layout_sound(self, program):
        library = TapeLibrary(scaled_profile(DLT_7000, 1 * MB), num_drives=2)
        live = []
        for index, (kind, value) in enumerate(program):
            if kind == "write":
                library.write_segment(f"s{index}", value * 1024)
                live.append(f"s{index}")
            elif live:
                library.delete_segment(live.pop(value % len(live)))
            held = {}
            for medium in library.media():
                extents = sorted((s.offset, s.end) for s in medium.segments())
                assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(extents, extents[1:]))
                assert all(end <= medium.write_position for _, end in extents)
                if not extents:
                    assert medium.used_bytes == 0
                held.update((s.name, medium.medium_id) for s in medium.segments())
            assert held == library._directory
            assert sorted(held) == sorted(live)


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
