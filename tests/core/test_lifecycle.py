"""Tests for archive lifecycle: delete, update, re-import, prefetch."""

import contextlib

import numpy as np
import pytest

from repro import FaultPlan, RetryExhaustedError
from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.core import rewrite
from repro.core.clustering import Placement, PlacementPolicy
from repro.errors import DriveFaultError, HeavenError
from repro.tertiary import DLT_7000, MB, scaled_profile
from repro.tertiary.media import Segment


def build_heaven(**overrides):
    config = HeavenConfig(**{
        "super_tile_bytes": 32 * 1024,  # 4 tiles per super-tile -> 4 super-tiles
        "disk_cache_bytes": 16 * MB,
        "memory_cache_bytes": 4 * MB,
        **overrides,
    })
    heaven = Heaven(config)
    heaven.create_collection("col")
    mdd = MDD(
        "obj",
        MInterval.of((0, 127), (0, 127)),
        DOUBLE,
        tiling=RegularTiling((32, 32)),
        source=HashedNoiseSource(3, 0.0, 50.0),
    )
    heaven.insert("col", mdd)
    heaven.archive("col", "obj")
    return heaven, mdd


class TestDelete:
    def test_delete_removes_all_layers(self):
        heaven, mdd = build_heaven()
        heaven.read("col", "obj", MInterval.of((0, 31), (0, 31)))
        heaven.delete("col", "obj")
        assert not heaven.is_archived("obj")
        assert "obj" not in heaven.collection("col")
        assert not heaven.precomputed.has_object("obj")
        # All tape segments gone from the directory.
        assert all(
            len(m) == 0 for m in heaven.library.media()
        )

    def test_read_after_delete_fails(self):
        heaven, _ = build_heaven()
        heaven.delete("col", "obj")
        with pytest.raises(Exception):
            heaven.read("col", "obj", MInterval.of((0, 1), (0, 1)))


class TestUpdate:
    def test_update_changes_cells(self):
        heaven, mdd = build_heaven()
        region = MInterval.of((10, 19), (10, 19))
        patch = np.full((10, 10), -77.0)
        count = heaven.update("col", "obj", region, patch)
        assert count >= 1
        assert np.array_equal(heaven.read("col", "obj", region), patch)

    def test_update_preserves_rest_of_object(self):
        heaven, mdd = build_heaven()
        untouched = MInterval.of((100, 120), (100, 120))
        before = heaven.read("col", "obj", untouched).copy()
        heaven.update(
            "col", "obj", MInterval.of((0, 9), (0, 9)), np.zeros((10, 10))
        )
        assert np.array_equal(heaven.read("col", "obj", untouched), before)

    def test_update_refreshes_precomputed(self):
        heaven, _ = build_heaven()
        region = MInterval.of((0, 31), (0, 31))  # exactly tile 0
        heaven.update("col", "obj", region, np.full((32, 32), 4.0))
        results = heaven.query("select avg_cells(c[0:31, 0:31]) from col as c")
        assert results[0].scalar() == pytest.approx(4.0)

    def test_update_writes_new_segments(self):
        heaven, _ = build_heaven()
        segments_before = sum(len(m) for m in heaven.library.media())
        heaven.update(
            "col", "obj", MInterval.of((0, 9), (0, 9)), np.zeros((10, 10))
        )
        segments_after = sum(len(m) for m in heaven.library.media())
        assert segments_after == segments_before  # one deleted, one added

    def test_update_unarchived_object_writes_in_place(self):
        heaven = Heaven(HeavenConfig(super_tile_bytes=512 * 1024))
        heaven.create_collection("d")
        mdd = MDD("plain", MInterval.of((0, 31), (0, 31)), DOUBLE)
        heaven.insert("d", mdd)
        count = heaven.update(
            "d", "plain", MInterval.of((0, 3), (0, 3)), np.ones((4, 4))
        )
        assert count == 0
        assert np.array_equal(
            heaven.read("d", "plain", MInterval.of((0, 3), (0, 3))), np.ones((4, 4))
        )


class OnePerMedium(PlacementPolicy):
    """Super-tile *i* goes to the *i*-th named medium."""

    def __init__(self, media):
        self.media = media

    def plan(self, super_tiles, library):
        return [Placement(st, m) for st, m in zip(super_tiles, self.media)]


class TestUpdateKeepsAppendMedium:
    """A two-drive update stages super-tiles from two shelved media while
    its append medium sits in a drive: the staging works around that drive
    instead of stowing the medium the rewrite then fetches back."""

    @pytest.mark.parametrize("keep, exchanges, kept_mounts", [(True, 2, 1), (False, 3, 0)])
    def test_staging_leaves_the_append_medium_mounted(self, keep, exchanges, kept_mounts):
        heaven = Heaven(HeavenConfig(
            tape_profile=scaled_profile(DLT_7000, 96 * 1024),
            num_drives=2,
            super_tile_bytes=32 * 1024,
            disk_cache_bytes=16 * MB,
            memory_cache_bytes=4 * MB,
        ))
        library = heaven.library
        for medium_id in ("a", "b", "c"):
            library.new_medium(medium_id)
        heaven.create_collection("col")
        domain = MInterval.of((0, 63), (0, 127))
        heaven.insert("col", MDD(
            "obj", domain, DOUBLE,
            tiling=RegularTiling((32, 32)),
            source=HashedNoiseSource(5, 0.0, 50.0),
        ))
        expected = heaven.read("col", "obj", domain).copy()
        heaven.archive("col", "obj", placement=OnePerMedium(["a", "b"]))
        super_tiles = heaven.archived("obj").super_tiles
        assert [library.locate(st.segment_name) for st in super_tiles] == ["a", "b"]
        size = max(st.size_bytes for st in super_tiles)
        for medium_id in ("a", "b"):  # leave no room for a rewrite
            filler = library.medium(medium_id).free_bytes - size + 1
            library.write_segment(f"fill-{medium_id}", filler, medium_id=medium_id)
        assert library.append_target(size) == "c"
        library.unmount_all()
        library.mount("c", library.drives[0])
        if not keep:  # plain holder / free / LRU drive choice
            library.keep_mounted = lambda medium_id: contextlib.nullcontext()
        before = library.stats()

        region = MInterval.of((1, 62), (1, 126))  # every tile of both super-tiles
        patch = np.arange(62 * 126, dtype=np.float64).reshape(62, 126)
        assert heaven.update("col", "obj", region, patch) == 2

        after = library.stats()
        assert after.exchanges - before.exchanges == exchanges
        assert after.kept_mounts - before.kept_mounts == kept_mounts
        assert [library.locate(st.segment_name) for st in super_tiles] == ["c", "c"]
        expected[1:63, 1:127] = patch
        heaven.memory_cache.invalidate_object("obj")
        for key in heaven.disk_cache.keys():
            heaven.disk_cache.invalidate(key)
        assert heaven.read("col", "obj", domain).tobytes() == expected.tobytes()

    def test_the_rewrite_appends_to_the_kept_medium(self):
        """The keep holds through the write: the new segments go to the
        medium staging left alone, not to a loaded medium registered before
        it that has room too."""
        heaven = Heaven(HeavenConfig(
            tape_profile=scaled_profile(DLT_7000, 192 * 1024),
            num_drives=2,
            super_tile_bytes=32 * 1024,
            disk_cache_bytes=16 * MB,
            memory_cache_bytes=4 * MB,
        ))
        library = heaven.library
        for medium_id in ("a", "b", "c"):
            library.new_medium(medium_id)
        heaven.create_collection("col")
        domain = MInterval.of((0, 63), (0, 127))
        heaven.insert("col", MDD(
            "obj", domain, DOUBLE,
            tiling=RegularTiling((32, 32)),
            source=HashedNoiseSource(5, 0.0, 50.0),
        ))
        expected = heaven.read("col", "obj", domain).copy()
        heaven.archive("col", "obj", placement=OnePerMedium(["a", "b"]))
        super_tiles = heaven.archived("obj").super_tiles
        library.unmount_all()
        library.mount("c", library.drives[0])
        size = sum(st.size_bytes for st in super_tiles)
        assert library.append_target(size) == "c"  # loaded first

        region = MInterval.of((1, 62), (1, 126))
        patch = np.arange(62 * 126, dtype=np.float64).reshape(62, 126)
        assert heaven.update("col", "obj", region, patch) == 2

        # staging left one of a, b loaded next to c, and both have room
        loaded = {d.medium.medium_id for d in library.drives}
        assert "c" in loaded and loaded & {"a", "b"}
        assert all(library.medium(m).fits(size) for m in ("a", "b"))
        assert [library.locate(st.segment_name) for st in super_tiles] == ["c", "c"]
        expected[1:63, 1:127] = patch
        heaven.memory_cache.invalidate_object("obj")
        assert heaven.read("col", "obj", domain).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spare, media", [(True, ["d", "d"]), (False, ["c", "new"])])
    def test_the_keep_is_sized_on_the_whole_rewrite(self, spare, media):
        """The append medium fits every new segment, else the largest one:
        a mounted medium with room for one super-tile only is kept just
        when no medium has room for both."""
        heaven = Heaven(HeavenConfig(
            tape_profile=scaled_profile(DLT_7000, 192 * 1024),
            num_drives=2,
            super_tile_bytes=32 * 1024,
            disk_cache_bytes=16 * MB,
            memory_cache_bytes=4 * MB,
        ))
        library = heaven.library
        for medium_id in ("a", "b", "c") + (("d",) if spare else ()):
            library.new_medium(medium_id)
        heaven.create_collection("col")
        domain = MInterval.of((0, 63), (0, 127))
        heaven.insert("col", MDD(
            "obj", domain, DOUBLE,
            tiling=RegularTiling((32, 32)),
            source=HashedNoiseSource(5, 0.0, 50.0),
        ))
        heaven.archive("col", "obj", placement=OnePerMedium(["a", "b"]))
        super_tiles = heaven.archived("obj").super_tiles
        largest = max(st.size_bytes for st in super_tiles)
        for medium_id, room in (("a", 0), ("b", 0), ("c", largest + 1024)):
            filler = library.medium(medium_id).free_bytes - room
            library.write_segment(f"fill-{medium_id}", filler, medium_id=medium_id)
        library.unmount_all()
        library.mount("c", library.drives[0])
        before = library.stats().exchanges

        region = MInterval.of((1, 62), (1, 126))
        heaven.update("col", "obj", region, np.zeros(region.shape))

        # a and b staged, then one mount for the write: of d, or of the new
        # medium once c (kept in its drive) is full
        assert library.stats().exchanges - before == 3
        located = [library.locate(st.segment_name) for st in super_tiles]
        assert [m if m in "abcd" else "new" for m in located] == media


class TestEmptiedMediaAreErased:
    """A medium whose last live segment an update, delete or reimport
    retires is erased, and the next segments written there read back
    byte-identical to the oracle."""

    DOMAIN = MInterval.of((0, 63), (0, 127))

    def build(self):
        heaven = Heaven(HeavenConfig(
            tape_profile=scaled_profile(DLT_7000, 192 * 1024),
            num_drives=2,
            super_tile_bytes=32 * 1024,
            disk_cache_bytes=16 * MB,
            memory_cache_bytes=4 * MB,
        ))
        for medium_id in ("a", "b", "c"):
            heaven.library.new_medium(medium_id)
        heaven.create_collection("col")
        self.insert(heaven, "obj", seed=5)
        expected = heaven.read("col", "obj", self.DOMAIN).copy()
        heaven.archive("col", "obj", placement=OnePerMedium(["a", "b"]))
        return heaven, expected

    def insert(self, heaven, name, seed):
        heaven.insert("col", MDD(
            name, self.DOMAIN, DOUBLE,
            tiling=RegularTiling((32, 32)),
            source=HashedNoiseSource(seed, 0.0, 50.0),
        ))

    def cold_read(self, heaven, name):
        heaven.library.unmount_all()
        heaven.memory_cache.invalidate_object(name)
        for key in heaven.disk_cache.keys():
            heaven.disk_cache.invalidate(key)
        return heaven.read("col", name, self.DOMAIN)

    def test_an_update_that_moves_the_last_segment_erases_its_medium(self):
        heaven, expected = self.build()
        library = heaven.library
        library.unmount_all()
        library.mount("c", library.drives[0])  # the rewrite appends to c
        region = MInterval.of((1, 30), (1, 62))  # super-tile 0 only, on a
        patch = np.arange(30 * 62, dtype=np.float64).reshape(30, 62)
        assert heaven.update("col", "obj", region, patch) == 1
        expected[1:31, 1:63] = patch

        a = library.medium("a")
        assert len(a) == 0 and a.write_position == 0
        assert library.medium("b").write_position > 0
        assert library.stats().media_erased == 1
        heaven.assert_quiescent()
        # The erased medium takes the next object from BOT.
        self.insert(heaven, "next", seed=9)
        following = heaven.read("col", "next", self.DOMAIN).copy()
        heaven.archive("col", "next", placement=OnePerMedium(["a", "a"]))
        segments = library.medium("a").segments()
        assert segments[0].offset == 0 and len(segments) == 2
        assert self.cold_read(heaven, "obj").tobytes() == expected.tobytes()
        assert self.cold_read(heaven, "next").tobytes() == following.tobytes()
        heaven.assert_quiescent()

    @pytest.mark.parametrize("detach", ["delete", "reimport"])
    def test_delete_and_reimport_erase_the_media_they_empty(self, detach):
        heaven, expected = self.build()
        library = heaven.library
        getattr(heaven, detach)("col", "obj")
        assert all(m.write_position == 0 for m in library.media())
        assert library.stats().media_erased == 2
        heaven.assert_quiescent()
        if detach == "delete":
            self.insert(heaven, "obj", seed=7)
            expected = heaven.read("col", "obj", self.DOMAIN).copy()
        heaven.archive("col", "obj", placement=OnePerMedium(["b", "a"]))
        super_tiles = heaven.archived("obj").super_tiles
        placed = [library.segment(st.segment_name) for st in super_tiles]
        assert [(medium_id, extent.offset) for medium_id, extent in placed] == [("b", 0), ("a", 0)]
        assert self.cold_read(heaven, "obj").tobytes() == expected.tobytes()
        heaven.assert_quiescent()


class TestWriteThrough:
    """An update leaves its fresh segments staged in the disk cache, after
    COMMIT and only then."""

    DOMAIN = MInterval.of((0, 127), (0, 127))
    #: inside super-tile 0 (tile row 0)
    REGION = MInterval.of((4, 11), (40, 51))

    def oracle(self, heaven):
        return heaven.read("col", "obj", self.DOMAIN).copy()

    def test_a_second_update_of_the_super_tile_stages_nothing(self):
        heaven, _ = build_heaven()
        expected = self.oracle(heaven)
        heaven.library.unmount_all()
        heaven.memory_cache.invalidate_object("obj")
        for key in heaven.disk_cache.keys():
            heaven.disk_cache.invalidate(key)
        heaven.update("col", "obj", self.REGION, np.full(self.REGION.shape, 7.0))
        new_key = heaven.archived("obj").super_tiles[0].segment_name
        stats = heaven.disk_cache.stats
        assert new_key in heaven.disk_cache and heaven.disk_cache.run(new_key) == (
            0, heaven.archived("obj").super_tiles[0].size_bytes)
        assert (stats.written_through, stats.bytes_written_through) == (
            1, heaven.archived("obj").super_tiles[0].size_bytes)
        # The memory tier forgets the tiles, as under memory pressure: only
        # the written-through run can spare the tape now.
        heaven.memory_cache.invalidate_object("obj")
        before = heaven.library.stats()
        heaven.update("col", "obj", self.REGION, np.full(self.REGION.shape, 9.0))
        after = heaven.library.stats()
        assert after.bytes_read == before.bytes_read
        assert after.exchanges == before.exchanges
        expected[4:12, 40:52] = 9.0
        assert heaven.read("col", "obj", self.REGION).tobytes() == expected[4:12, 40:52].tobytes()
        assert heaven.read("col", "obj", self.DOMAIN).tobytes() == expected.tobytes()
        heaven.assert_quiescent()

    def test_without_write_through_the_second_update_restages(self, monkeypatch):
        monkeypatch.setattr(rewrite, "_write_through", lambda heaven, key, size: None)
        heaven, _ = build_heaven()
        heaven.update("col", "obj", self.REGION, np.full(self.REGION.shape, 7.0))
        heaven.memory_cache.invalidate_object("obj")
        before = heaven.library.stats()
        heaven.update("col", "obj", self.REGION, np.full(self.REGION.shape, 9.0))
        assert heaven.library.stats().bytes_read > before.bytes_read

    def test_skipped_when_every_cache_entry_is_pinned(self):
        # room for one super-tile run (32 KiB) only
        heaven, _ = build_heaven(disk_cache_bytes=40 * 1024)
        expected = self.oracle(heaven)
        pinned = heaven.archived("obj").super_tiles[3].segment_name
        heaven.read("col", "obj", MInterval.of((100, 103), (0, 127)))
        assert heaven.disk_cache.keys() == [pinned]
        heaven.disk_cache.pin(pinned)
        heaven.memory_cache.invalidate_object("obj")
        assert heaven.update("col", "obj", self.REGION, np.full(self.REGION.shape, 7.0)) == 1
        assert heaven.disk_cache.keys() == [pinned]
        assert heaven.disk_cache.stats.written_through == 0
        heaven.disk_cache.unpin(pinned)
        heaven.assert_quiescent()
        expected[4:12, 40:52] = 7.0
        assert heaven.read("col", "obj", self.DOMAIN).tobytes() == expected.tobytes()

    def test_skipped_when_the_segment_exceeds_the_cache(self):
        heaven, _ = build_heaven(disk_cache_bytes=16 * 1024)
        expected = self.oracle(heaven)
        heaven.memory_cache.invalidate_object("obj")
        assert heaven.update("col", "obj", self.REGION, np.full(self.REGION.shape, 7.0)) == 1
        assert heaven.disk_cache.keys() == []
        assert heaven.disk_cache.stats.written_through == 0
        heaven.assert_quiescent()
        expected[4:12, 40:52] = 7.0
        assert heaven.read("col", "obj", self.DOMAIN).tobytes() == expected.tobytes()

    def test_a_fault_on_the_second_write_rolls_back_and_caches_nothing(self, monkeypatch):
        heaven, _ = build_heaven()
        expected = self.oracle(heaven)
        entry = heaven.archived("obj")
        old_keys = [st.segment_name for st in entry.super_tiles]
        library = heaven.library
        write_segment, written = library.write_segment, []

        def faulty_write(name, *args, **kwargs):
            written.append(name)
            if len(written) == 2:
                raise DriveFaultError(f"injected fault writing {name}")
            return write_segment(name, *args, **kwargs)

        monkeypatch.setattr(library, "write_segment", faulty_write)
        region = MInterval.of((30, 33), (0, 5))  # super-tiles 0 and 1
        with pytest.raises(DriveFaultError):
            heaven.update("col", "obj", region, np.zeros(region.shape))
        monkeypatch.undo()
        assert written == ["1/st0.v1", "1/st1.v1"]
        assert heaven.exporter.wal.records()[-1].kind.name == "ABORT"
        for key in written:
            assert not library.has_segment(key)
            assert key not in heaven.disk_cache
        assert [st.segment_name for st in entry.super_tiles] == old_keys
        assert heaven.disk_cache.stats.written_through == 0
        heaven.assert_quiescent()
        heaven.memory_cache.invalidate_object("obj")
        assert heaven.read("col", "obj", self.DOMAIN).tobytes() == expected.tobytes()


class TestQuiescenceSeesOrphanedCacheKeys:
    def test_a_cache_key_without_a_library_segment_is_not_quiescent(self):
        heaven, _ = build_heaven()
        heaven.read("col", "obj", MInterval.of((0, 3), (0, 3)))
        heaven.assert_quiescent()
        (key,) = heaven.disk_cache.keys()
        heaven.library.delete_segment(key)  # behind the cache's back
        with pytest.raises(HeavenError, match="no live library segment"):
            heaven.assert_quiescent()


class TestQuiescenceSeesMediaLayout:
    """``assert_quiescent`` checks every medium's layout and the disk
    cache's running byte total."""

    def medium_of_two(self):
        heaven, _ = build_heaven()
        heaven.assert_quiescent()
        medium = next(m for m in heaven.library.media() if len(m) >= 2)
        return heaven, medium

    def test_an_erase_under_a_live_segment_is_not_quiescent(self):
        heaven, medium = self.medium_of_two()
        medium.write_position = 0  # what an unguarded erase would leave
        with pytest.raises(HeavenError, match="past .* write position"):
            heaven.assert_quiescent()

    def test_overlapping_live_segments_are_not_quiescent(self):
        heaven, medium = self.medium_of_two()
        first, second = medium.segments()[:2]
        medium._segments[second.name] = Segment(second.name, first.offset + 1, second.length)
        with pytest.raises(HeavenError, match="overlap"):
            heaven.assert_quiescent()

    def test_an_emptied_medium_left_unerased_is_not_quiescent(self):
        heaven, medium = self.medium_of_two()
        for segment in medium.segments():
            medium.delete(segment.name)  # behind the library's back
        with pytest.raises(HeavenError, match="holds no live segment"):
            heaven.assert_quiescent()

    def test_a_drifted_cache_byte_total_is_not_quiescent(self):
        heaven, _ = build_heaven()
        heaven.read("col", "obj", MInterval.of((0, 3), (0, 3)))
        heaven.disk_cache._used += 1
        with pytest.raises(HeavenError, match="runs hold"):
            heaven.assert_quiescent()


#: Unaligned in both axes: 10 edge tiles around 2 interior tiles.
EDGE_BOX = MInterval.of((5, 70), (9, 100))
CONDENSER = "select add_cells(c[5:70, 9:100]) from col as c"


def condense(heaven):
    return heaven.query(CONDENSER)[0].scalar()


def numpy_sum(heaven):
    return float(heaven.read("col", "obj", EDGE_BOX).sum(dtype=np.float64))


class TestEdgePartials:
    """A repeated condenser answers its edge tiles from remembered partials;
    every path that changes an archived object's cells forgets them."""

    def test_repeated_condenser_touches_no_cache(self):
        heaven, _ = build_heaven(compression="zlib")
        first = condense(heaven)
        assert heaven.precomputed.stats.edge_read == 10
        lookups = heaven.memory_cache.stats.lookups
        disk_reads = heaven.disk_cache.disk.stats.reads
        assert condense(heaven) == first
        assert heaven.memory_cache.stats.lookups == lookups
        assert heaven.disk_cache.disk.stats.reads == disk_reads
        assert heaven.precomputed.stats.edge_reused == 10
        assert first == pytest.approx(numpy_sum(heaven))

    def test_update_of_an_edge_overlap(self):
        heaven, _ = build_heaven(compression="zlib")
        before = condense(heaven)
        heaven.update("col", "obj", MInterval.of((5, 9), (9, 12)), np.full((5, 4), 1e4))
        after = condense(heaven)
        assert after != before
        assert after == pytest.approx(numpy_sum(heaven))

    def test_failed_update_keeps_old_partials(self):
        plan = FaultPlan()
        heaven, _ = build_heaven(compression="zlib", fault_plan=plan)
        before = condense(heaven)
        old = numpy_sum(heaven)
        heaven.library.unmount_all()
        plan.fail_next("mount", count=50)
        with pytest.raises(RetryExhaustedError):
            heaven.update(
                "col", "obj", MInterval.of((5, 9), (9, 12)), np.full((5, 4), 1e4)
            )
        plan.reset()
        reused = heaven.precomputed.stats.edge_reused
        assert condense(heaven) == before
        assert heaven.precomputed.stats.edge_reused == reused + 10
        assert numpy_sum(heaven) == old

    def test_delete_and_rearchive_under_the_same_name(self):
        heaven, _ = build_heaven(compression="zlib")
        before = condense(heaven)
        heaven.delete("col", "obj")
        heaven.insert("col", MDD(
            "obj",
            MInterval.of((0, 127), (0, 127)),
            DOUBLE,
            tiling=RegularTiling((32, 32)),
            source=HashedNoiseSource(4, 0.0, 50.0),
        ))
        heaven.archive("col", "obj")
        after = condense(heaven)
        assert after != before
        assert after == pytest.approx(numpy_sum(heaven))


class TestReimport:
    def test_reimport_restores_disk_residence(self):
        heaven, mdd = build_heaven()
        whole = mdd.read_all().copy()
        count = heaven.reimport("col", "obj")
        assert count == mdd.tile_count()
        assert not heaven.is_archived("obj")
        # Reads no longer touch tape.
        tape_before = heaven.library.stats().bytes_read
        got = heaven.read("col", "obj", mdd.domain)
        assert np.array_equal(got, whole)
        assert heaven.library.stats().bytes_read == tape_before

    def test_reimport_drops_derived_catalogs(self):
        """Reimport detaches like delete: the object's aggregates and
        pyramid levels leave with its segments, so a later disk-resident
        update and delete leave nothing behind in either catalog."""
        heaven, _ = build_heaven(pyramid_factors=(2,))
        assert heaven.precomputed.has_object("obj")
        assert heaven.pyramids.has_object("obj")
        heaven.reimport("col", "obj")
        assert not heaven.precomputed.has_object("obj")
        assert not heaven.pyramids.has_object("obj")
        heaven.update("col", "obj", MInterval.of((0, 3), (0, 3)), np.ones((4, 4)))
        heaven.delete("col", "obj")
        assert heaven.precomputed._tiles == {} and heaven.precomputed._edges == {}
        assert heaven.pyramids._levels == {}

    def test_reimport_unarchived_rejected(self):
        heaven, _ = build_heaven()
        heaven.reimport("col", "obj")
        with pytest.raises(HeavenError):
            heaven.reimport("col", "obj")


class TestPrefetch:
    def test_sequential_prefetch_stages_neighbours(self):
        heaven, mdd = build_heaven(prefetch="sequential")
        entry = heaven.archived("obj")
        first_st = entry.super_tiles[0]
        region = first_st.domain
        heaven.read("col", "obj", region)
        # The next super-tile in cluster order was prefetched too.
        neighbour = entry.super_tiles[1]
        assert neighbour.segment_name in heaven.disk_cache

    def test_prefetched_neighbour_read_is_cache_hit(self):
        heaven, mdd = build_heaven(prefetch="sequential")
        entry = heaven.archived("obj")
        heaven.read("col", "obj", entry.super_tiles[0].domain)
        _c, report = heaven.read_with_report(
            "col", "obj", entry.super_tiles[1].domain
        )
        assert report.bytes_from_tape == 0

    def test_no_prefetch_by_default(self):
        heaven, mdd = build_heaven()
        entry = heaven.archived("obj")
        heaven.read("col", "obj", entry.super_tiles[0].domain)
        assert entry.super_tiles[1].segment_name not in heaven.disk_cache

    def test_invalid_prefetch_config_rejected(self):
        with pytest.raises(ValueError):
            HeavenConfig(prefetch="psychic")
