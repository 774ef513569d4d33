"""Tests for the batch staging pipeline: wave admission, cache pinning,
merged shared-super-tile runs, exact cost accounting and update naming.

These are the regression tests for the staging bugs fixed in the pinned
pipeline rework: early-staged segments must survive until assembly even
when the batch is larger than the disk cache (no per-tile restages), runs
of a super-tile shared by several queries must be merged before the tape
request is issued, and the retrieval report must match the event-log
ground truth byte for byte.
"""

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import DiskCache, Heaven, HeavenConfig, LRUPolicy
from repro.errors import CacheError, CachePinnedError
from repro.tertiary import DISK_ARRAY, MB, SimClock


def make_heaven(**overrides):
    defaults = dict(
        super_tile_bytes=8 * 1024,    # 4 tiles of 2 KB per super-tile
        disk_cache_bytes=16 * 1024,   # two resident super-tiles at most
        memory_cache_bytes=16 * MB,
        num_drives=1,
    )
    defaults.update(overrides)
    heaven = Heaven(HeavenConfig(**defaults))
    heaven.create_collection("col")
    return heaven


def archive_objects(heaven, count=3, side=64):
    mdds = []
    for i in range(count):
        mdd = MDD(
            f"o{i}",
            MInterval.of((0, side - 1), (0, side - 1)),
            DOUBLE,
            tiling=RegularTiling((16, 16)),
            source=HashedNoiseSource(i, 0.0, 5.0),
        )
        heaven.insert("col", mdd)
        heaven.archive("col", mdd.name)
        mdds.append(mdd)
    heaven.library.unmount_all()
    return mdds


def window_ground_truth(log, start):
    """Event-log ground truth over ``[start, now)``: tape bytes, exchanges,
    restage fallbacks."""
    events = log.window(start)
    return (
        sum(e.bytes for e in events if e.kind == "read"),
        sum(1 for e in events if e.kind == "load"),
        sum(1 for e in events if e.kind == "restage"),
    )


class TestWaveAdmission:
    """A batch larger than the disk cache is served in pinned waves."""

    def run_batch(self):
        heaven = make_heaven()
        mdds = archive_objects(heaven)
        region = MInterval.of((0, 63), (0, 63))  # every tile of every object
        batch = [("col", m.name, region) for m in mdds]
        start = heaven.clock.log.cursor()
        outputs, report = heaven.read_many(batch)
        return heaven, mdds, region, outputs, report, start

    def test_no_restages_under_cache_pressure(self):
        heaven, mdds, _region, _outputs, report, start = self.run_batch()
        # Batch footprint (3 x 32 KB) is double the 16 KB disk cache.
        assert report.bytes_from_tape > heaven.disk_cache.capacity_bytes
        _bytes, _loads, restages = window_ground_truth(heaven.clock.log, start)
        assert restages == 0
        assert report.restages == 0
        assert heaven.restages == 0

    def test_multiple_waves_used(self):
        _heaven, _mdds, _region, _outputs, report, _start = self.run_batch()
        assert report.waves > 1
        assert report.pins > 0

    def test_report_matches_event_log_exactly(self):
        heaven, _mdds, _region, _outputs, report, start = self.run_batch()
        tape_bytes, loads, _restages = window_ground_truth(
            heaven.clock.log, start
        )
        assert report.bytes_from_tape == tape_bytes
        assert report.exchanges == loads

    def test_results_stay_correct(self):
        _heaven, mdds, region, outputs, _report, _start = self.run_batch()
        for cells, mdd in zip(outputs, mdds):
            expect = mdd.source.region(region, mdd.cell_type)
            assert np.array_equal(cells, expect)

    def test_all_pins_released_after_batch(self):
        heaven, _mdds, _region, _outputs, _report, _start = self.run_batch()
        assert heaven.disk_cache.pinned_bytes == 0
        assert heaven.disk_cache.pinned_keys() == []

    def test_segment_larger_than_whole_cache_degrades_gracefully(self):
        # Runs that exceed the cache capacity outright cannot be staged at
        # all; their tiles must be decoded straight into the memory cache.
        heaven = make_heaven(disk_cache_bytes=6 * 1024)  # < one 8 KB segment
        mdds = archive_objects(heaven, count=2)
        region = MInterval.of((0, 63), (0, 63))
        start = heaven.clock.log.cursor()
        outputs, report = heaven.read_many(
            [("col", m.name, region) for m in mdds]
        )
        _bytes, _loads, restages = window_ground_truth(heaven.clock.log, start)
        assert restages == 0
        assert heaven.disk_cache.pinned_bytes == 0
        for cells, mdd in zip(outputs, mdds):
            expect = mdd.source.region(region, mdd.cell_type)
            assert np.array_equal(cells, expect)
        assert report.bytes_from_tape == _bytes

    def test_single_reads_under_pressure_also_exact(self):
        heaven = make_heaven()
        (mdd,) = archive_objects(heaven, count=1)
        region = MInterval.of((0, 63), (0, 63))
        start = heaven.clock.log.cursor()
        cells, report = heaven.read_with_report("col", "o0", region)
        tape_bytes, loads, _ = window_ground_truth(heaven.clock.log, start)
        assert report.bytes_from_tape == tape_bytes
        assert report.exchanges == loads
        assert np.array_equal(cells, mdd.source.region(region, DOUBLE))


class TestMergedRuns:
    """Queries sharing a super-tile get ONE tape request covering both."""

    def shared_super_tile_heaven(self):
        # One 32 KB super-tile holds all 16 tiles of the object.
        heaven = make_heaven(
            super_tile_bytes=1 * MB,
            disk_cache_bytes=4 * MB,
            partial_super_tile_reads=True,
        )
        (mdd,) = archive_objects(heaven, count=1)
        entry = heaven.archived("o0")
        assert len(entry.super_tiles) == 1
        return heaven, mdd, entry

    def test_partial_runs_merge_across_the_batch(self):
        heaven, mdd, entry = self.shared_super_tile_heaven()
        near = MInterval.of((0, 15), (0, 15))      # first tile
        far = MInterval.of((48, 63), (48, 63))     # last tile
        start = heaven.clock.log.cursor()
        outputs, _report = heaven.read_many(
            [("col", "o0", near), ("col", "o0", far)]
        )
        reads = [
            e for e in heaven.clock.log.window(start) if e.kind == "read"
        ]
        # One merged request, not one partial run per query.
        assert len(reads) == 1
        st = entry.super_tiles[0]
        union = sorted(
            {t.tile_id for t in mdd.tiles_for(near)}
            | {t.tile_id for t in mdd.tiles_for(far)}
        )
        expect_offset, expect_length = st.run_covering(union)
        run = entry.staged_runs[st.segment_name]
        assert run[0] <= expect_offset
        assert run[0] + run[1] >= expect_offset + expect_length
        assert np.array_equal(outputs[0], mdd.source.region(near, DOUBLE))
        assert np.array_equal(outputs[1], mdd.source.region(far, DOUBLE))

    def test_merged_run_cheaper_than_serial_partial_reads(self):
        heaven, _mdd, _entry = self.shared_super_tile_heaven()
        near = MInterval.of((0, 15), (0, 15))
        far = MInterval.of((48, 63), (48, 63))
        _outputs, report = heaven.read_many(
            [("col", "o0", near), ("col", "o0", far)]
        )
        assert report.exchanges == 1


class TestPinnedCache:
    """Pinned entries are unevictable; exhaustion raises a typed error."""

    def cache(self):
        return DiskCache(10 * MB, LRUPolicy(), DISK_ARRAY, SimClock())

    def test_insert_raises_when_everything_is_pinned(self):
        cache = self.cache()
        cache.insert("a", 6 * MB, 1.0, pins=1)
        with pytest.raises(CachePinnedError):
            cache.insert("b", 6 * MB, 1.0)
        assert cache.stats.pin_evictions_blocked > 0
        assert "a" in cache  # the pinned entry survived the attempt

    def test_unpin_makes_entry_evictable_again(self):
        cache = self.cache()
        cache.insert("a", 6 * MB, 1.0, pins=1)
        cache.unpin("a")
        cache.insert("b", 6 * MB, 1.0)
        assert "a" not in cache
        assert "b" in cache

    def test_eviction_skips_pinned_lru_entry(self):
        cache = self.cache()
        cache.insert("old", 4 * MB, 1.0, pins=1)
        cache.insert("new", 4 * MB, 1.0)
        cache.insert("newer", 4 * MB, 1.0)  # LRU victim would be "old"
        assert "old" in cache
        assert "new" not in cache

    def test_pin_refcounts(self):
        cache = self.cache()
        cache.insert("a", 1 * MB, 1.0)
        cache.pin("a")
        cache.pin("a")
        assert cache.pin_count("a") == 2
        cache.unpin("a")
        assert cache.is_pinned("a")
        cache.unpin("a")
        assert not cache.is_pinned("a")
        assert cache.stats.pins == 2
        assert cache.stats.unpins == 2

    def test_pin_absent_and_unpin_unpinned_rejected(self):
        cache = self.cache()
        with pytest.raises(CacheError):
            cache.pin("ghost")
        cache.insert("a", 1 * MB, 1.0)
        with pytest.raises(CacheError):
            cache.unpin("a")

    def test_invalidate_clears_pins(self):
        cache = self.cache()
        cache.insert("a", 1 * MB, 1.0, pins=1)
        assert cache.invalidate("a")
        assert not cache.is_pinned("a")
        assert cache.pinned_bytes == 0

    def test_pinned_bytes_tracks_pinned_entries_only(self):
        cache = self.cache()
        cache.insert("a", 2 * MB, 1.0, pins=1)
        cache.insert("b", 3 * MB, 1.0)
        assert cache.pinned_bytes == 2 * MB
        cache.unpin("a")
        assert cache.pinned_bytes == 0

    def test_typed_error_is_a_cache_error(self):
        assert issubclass(CachePinnedError, CacheError)


class TestUpdateSegmentNaming:
    """Updated segments get monotonic version suffixes, not timestamps."""

    def test_versions_are_monotonic_and_stable_length(self):
        heaven = make_heaven(super_tile_bytes=1 * MB, disk_cache_bytes=4 * MB)
        (mdd,) = archive_objects(heaven, count=1)
        region = MInterval.of((0, 15), (0, 15))
        patch = np.full((16, 16), 7.5, dtype=np.float64)

        heaven.update("col", "o0", region, patch)
        entry = heaven.archived("o0")
        first = entry.super_tiles[0].segment_name
        assert first.endswith(".v1")

        heaven.update("col", "o0", region, patch)
        second = heaven.archived("o0").super_tiles[0].segment_name
        assert second.endswith(".v2")
        # The version suffix replaces the previous one, it never stacks.
        assert second.count(".v") == 1
        assert len(second) == len(first)

    def test_updates_at_same_virtual_time_never_collide(self):
        # The old scheme derived names from the clock, colliding whenever
        # two updates landed within the same virtual millisecond.
        heaven = make_heaven(super_tile_bytes=1 * MB, disk_cache_bytes=4 * MB)
        archive_objects(heaven, count=1)
        region = MInterval.of((0, 15), (0, 15))
        names = set()
        for value in range(3):
            patch = np.full((16, 16), float(value), dtype=np.float64)
            heaven.update("col", "o0", region, patch)
            names.add(heaven.archived("o0").super_tiles[0].segment_name)
        assert len(names) == 3
        cells = heaven.read("col", "o0", region)
        assert np.array_equal(cells, np.full((16, 16), 2.0))
