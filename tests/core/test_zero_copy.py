"""Regression tests for the zero-copy read path and its satellite bugfixes.

Four bugs are pinned here (each failed before its fix):

* the resolver's restage fallback trusted whatever run a re-stage landed
  without re-checking that it covers the tile — a narrower or shifted run
  (an interleaved batch re-planning the segment) made the disk-cache read
  raise on a negative offset or return the wrong bytes.  The fallback is
  now one direct tape read of the tile's run, which lands nothing in the
  disk cache;
* ``MDD.from_array`` stored *views* of the caller's array as tile
  payloads, so a later ``mdd.write`` silently mutated the user's input
  in place (the copy-on-write guard never fired on a writable view);
* ``read_with_report`` attributed pins via a global ``stats.pins`` delta,
  charging the read for pins other (nested/interleaved) queries took
  between the two samples;
* widening a cached run too narrow for a later sweep dropped the pins
  other queries held on it, so one of them restaged and the cache counted
  more pins than unpins.

Plus the zero-copy pipeline invariants: decoded tiles are read-only
views, assembled results never alias cache memory, and the
``repro_assembly_bytes_copied_total`` counter stays at zero.
"""

import tracemalloc

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, ZlibCodec, compression
from repro.core import staging
from repro.core.admission import AdmissionController, QuerySpec
from repro.tertiary import MB


def make_heaven(observability=False, **overrides):
    defaults = dict(
        super_tile_bytes=8 * 1024,    # 4 tiles of 2 KB per super-tile
        disk_cache_bytes=16 * 1024,
        memory_cache_bytes=16 * MB,
        num_drives=1,
        retain_payload=True,
    )
    defaults.update(overrides)
    heaven = Heaven(HeavenConfig(**defaults), observability=observability)
    heaven.create_collection("col")
    return heaven


def archive_object(heaven, name="o0", side=64, seed=0):
    mdd = MDD(
        name,
        MInterval.of((0, side - 1), (0, side - 1)),
        DOUBLE,
        tiling=RegularTiling((16, 16)),
        source=HashedNoiseSource(seed, 0.0, 5.0),
    )
    heaven.insert("col", mdd)
    heaven.archive("col", mdd.name)
    heaven.library.unmount_all()
    return mdd


def expected_cells(mdd, region):
    return mdd.source.region(region, mdd.cell_type) if mdd.source else None


class TestRestageCoverageRecheck:
    """A tile whose staged run is gone, or does not cover it, is read
    straight off tape: one direct read, nothing cached on disk."""

    def _prime_fallback(self, heaven, mdd):
        """Drop the target tile's segment so the resolver must restage."""
        entry = heaven._archived[mdd.name]
        tile = mdd.tiles[0]
        super_tile = entry.super_tile_of(tile.tile_id)
        key = super_tile.segment_name
        if key in heaven.disk_cache:
            heaven.disk_cache.invalidate(key)
        heaven.memory_cache.invalidate_object(mdd.name)
        return entry, tile, super_tile, key

    def test_organic_restage_with_covering_run_reads_through(self):
        """The legitimate fallback (the resolver restages after an
        eviction) returns the right cells."""
        heaven = make_heaven()
        mdd = archive_object(heaven)
        entry, tile, _super_tile, _key = self._prime_fallback(heaven, mdd)
        # Read the MDD directly, outside any staging batch: the resolver
        # hits the fallback cold and must restage for real.
        cells = mdd.read(tile.domain)
        np.testing.assert_array_equal(cells, expected_cells(mdd, tile.domain))
        assert heaven.restages >= 1


    def test_hsm_restage_reads_the_whole_segment_through_the_hsm(self):
        """Under HSM attachment the file is the unit of access: a forced
        fallback streams the whole segment and pays the HSM's double hop
        (one staging-disk write, one read) for it."""
        heaven = make_heaven(attachment="hsm")
        mdd = archive_object(heaven)
        _entry, tile, super_tile, _key = self._prime_fallback(heaven, mdd)
        log = heaven.clock.log
        cursor = log.cursor()
        cells = mdd.read(tile.domain)
        np.testing.assert_array_equal(cells, expected_cells(mdd, tile.domain))
        events = log.window(cursor)
        drive_reads = [e.bytes for e in events if e.kind == "read" and e.device.startswith("drive")]
        hsm = [(e.kind, e.bytes) for e in events if e.device == "hsm-staging"]
        assert heaven.restages == 1
        assert drive_reads == [super_tile.size_bytes]
        assert hsm == [("disk-write", super_tile.size_bytes), ("disk-read", super_tile.size_bytes)]
        assert heaven.disk_cache.keys() == []


class TestFromArrayCopiesInput:
    """Satellite 2: from_array must never alias the caller's array."""

    def test_write_does_not_mutate_caller_array_1d(self):
        # 1-D slices of a 1-D array are contiguous views — exactly the
        # case ascontiguousarray passed through unchanged before the fix.
        original = np.arange(64, dtype=np.float64)
        snapshot = original.copy()
        mdd = MDD.from_array("m", original, tiling=RegularTiling((16,)))
        mdd.write(MInterval.of((0, 63)), np.full(64, -1.0))
        np.testing.assert_array_equal(original, snapshot)

    def test_write_does_not_mutate_caller_array_2d(self):
        original = np.arange(64, dtype=np.float64).reshape(8, 8)
        snapshot = original.copy()
        mdd = MDD.from_array("m", original, tiling=RegularTiling((8, 8)))
        mdd.write(MInterval.of((0, 7), (0, 7)), np.zeros((8, 8)))
        np.testing.assert_array_equal(original, snapshot)

    def test_payloads_do_not_share_memory_with_input(self):
        original = np.arange(256, dtype=np.float64).reshape(16, 16)
        mdd = MDD.from_array("m", original, tiling=RegularTiling((8, 8)))
        for tile in mdd.tiles.values():
            assert not np.shares_memory(tile.payload, original)

    def test_round_trip_values_unchanged(self):
        original = np.arange(100, dtype=np.float64).reshape(10, 10)
        mdd = MDD.from_array("m", original, tiling=RegularTiling((4, 4)))
        np.testing.assert_array_equal(mdd.read_all(), original)


class TestPinAttribution:
    """Satellite 3: reads report their OWN pins, not global pin traffic."""

    def baseline_pins(self):
        heaven = make_heaven()
        mdd = archive_object(heaven)
        region = MInterval.of((0, 15), (0, 15))
        _cells, report = heaven.read_with_report("col", mdd.name, region)
        return report.pins

    def test_nested_read_pins_not_charged_to_outer(self, monkeypatch):
        """A query running inside another's lifetime (cooperative
        interleaving, sub-queries) used to inflate the outer report's
        pin count via the global stats delta."""
        baseline = self.baseline_pins()
        heaven = make_heaven()
        mdd = archive_object(heaven, "o0", seed=0)
        other = archive_object(heaven, "o1", seed=1)
        region = MInterval.of((0, 15), (0, 15))

        original_read = mdd.read

        def read_with_interleaved_query(read_region):
            out = original_read(read_region)
            # Simulates another task's turn: its pins move stats.pins
            # inside the outer read's sampling window.
            heaven.read("col", other.name, MInterval.of((0, 63), (0, 63)))
            return out

        monkeypatch.setattr(mdd, "read", read_with_interleaved_query)
        _cells, report = heaven.read_with_report("col", mdd.name, region)
        assert report.pins == baseline

    def test_serial_read_pins_match_global_delta(self):
        """With nothing interleaved the owned count IS the global delta —
        the reconciliation simtest relies on (report.pins == metric
        delta) staying exact."""
        heaven = make_heaven()
        mdd = archive_object(heaven)
        region = MInterval.of((0, 63), (0, 63))
        before = heaven.disk_cache.stats.pins
        _cells, report = heaven.read_with_report("col", mdd.name, region)
        assert report.pins == heaven.disk_cache.stats.pins - before

    def test_restage_fallback_pins_attributed_to_owner(self):
        """Mid-assembly restage pins belong to the read that triggered
        them (the fallback now takes none, so the read's pins are still
        exactly the global delta)."""
        heaven = make_heaven()
        mdd = archive_object(heaven)
        region = MInterval.of((0, 15), (0, 15))
        heaven.read("col", mdd.name, region)  # warm
        # Kill the staged segment and the memory tiles: next read restages.
        for key in heaven.disk_cache.keys():
            heaven.disk_cache.invalidate(key)
        heaven.memory_cache.invalidate_object(mdd.name)
        before = heaven.disk_cache.stats.pins
        _cells, report = heaven.read_with_report("col", mdd.name, region)
        assert report.pins == heaven.disk_cache.stats.pins - before

    def test_admission_restage_pins_attributed_to_assembling_query(
        self, monkeypatch
    ):
        """A tile whose staged run vanished before its admission query
        assembled is read straight off tape: right bytes, no pin, no
        disk-cache entry, and the tape bytes and the run's whole pin
        traffic land in the assembling query's report."""
        heaven = make_heaven()
        mdd = archive_object(heaven)
        region = MInterval.of((0, 15), (0, 15))
        entry = heaven._archived[mdd.name]
        stats = heaven.disk_cache.stats
        seen = {}
        controller = AdmissionController(heaven)
        assemble = controller._assemble

        def drop_then_assemble(task):
            # Kill the query's staged segment and its memory tiles just
            # before it assembles: the resolver must restage.
            seen["held"] = sum(
                heaven.disk_cache.pin_count(key) for key in heaven.disk_cache.keys()
            )
            for key in heaven.disk_cache.keys():
                heaven.disk_cache.invalidate(key)
            heaven.memory_cache.invalidate_object(mdd.name)
            seen["keys"] = heaven.disk_cache.keys()
            seen["pins"] = stats.pins
            seen["tape"] = heaven.library.stats().bytes_read
            assemble(task)
            seen["fallback_pins"] = stats.pins - seen["pins"]
            seen["fallback_tape"] = heaven.library.stats().bytes_read - seen["tape"]

        monkeypatch.setattr(controller, "_assemble", drop_then_assemble)
        before = stats.pins
        (cells,), multi = controller.run(
            [QuerySpec(collection="col", object_name=mdd.name, region=region)]
        )
        np.testing.assert_array_equal(cells, expected_cells(mdd, region))
        (query,) = multi.queries
        _offset, tile_length = entry.super_tile_of(0).tile_extents[0]
        assert query.restages == 1
        assert seen["held"] > 0 and seen["fallback_pins"] == 0
        assert query.pins == stats.pins - before
        assert heaven.disk_cache.keys() == seen["keys"]
        assert seen["fallback_tape"] == tile_length
        assert query.bytes_from_tape == multi.bytes_from_tape
        assert query.bytes_from_tape == 2 * tile_length  # its sweep + its restage
        heaven.assert_quiescent()

    def test_concurrent_queries_reconcile_lease_counts(self, monkeypatch):
        """A query's pins are its sweeps' pins plus its own ticket's, and
        the queries' own tickets took exactly the pins the sweeps handed
        over plus any their assembly took: no query is charged another's
        hand-over pins."""
        heaven = make_heaven(disk_cache_bytes=64 * 1024)
        archive_object(heaven, "o0", seed=0)
        archive_object(heaven, "o1", seed=1)
        region = MInterval.of((0, 63), (0, 63))
        requests = [
            ("col", "o0", region),
            ("col", "o1", region),
            ("col", "o0", MInterval.of((0, 15), (0, 15))),
        ]
        stats = heaven.disk_cache.stats
        controller = AdmissionController(heaven, schedule_seed=3)
        handed, restaged = [], []
        sweep_pins = {}
        hand_over, assemble = staging._hand_over_pins, controller._assemble
        stage_sweep = staging.stage_sweep

        def counted_stage_sweep(heaven, needs, holders):
            ticket = stage_sweep(heaven, needs, holders)
            for qid in {q for need in needs.values() for q in need.query_ids}:
                sweep_pins[qid] = sweep_pins.get(qid, 0) + ticket.pins
            return ticket

        def counted_hand_over(*args):
            before = stats.pins
            hand_over(*args)
            handed.append(stats.pins - before)

        def counted_assemble(task):
            before = stats.pins
            assemble(task)
            restaged.append(stats.pins - before)

        monkeypatch.setattr(staging, "_hand_over_pins", counted_hand_over)
        monkeypatch.setattr(controller, "_assemble", counted_assemble)
        monkeypatch.setattr(staging, "stage_sweep", counted_stage_sweep)
        _outputs, multi = controller.run(
            [QuerySpec(collection=c, object_name=o, region=r) for c, o, r in requests]
        )
        tasks = controller._tasks
        assert sum(handed) > 0
        assert sum(task.ticket.pins for task in tasks) == sum(handed) + sum(restaged)
        for task, report in zip(tasks, multi.queries):
            assert report.pins == sweep_pins.get(task.qid, 0) + task.ticket.pins
        heaven.assert_quiescent()

    def test_widening_a_pinned_run_carries_its_pins(self):
        """Query A holds tile 0's run of st0 while it waits for st1; query B
        then needs tile 3 of st0, so B's sweep restages st0 wider.  A's pin
        rides onto the wider run: A assembles without a restage, and every
        pin taken is released (the dropped pin used to leave 7 pins
        against 6 unpins, 14 336 tape bytes and a 75.6 s makespan)."""
        heaven = make_heaven(
            disk_cache_bytes=8 * 1024,
            memory_cache_bytes=2 * 1024,
            inter_clustering=False,  # one super-tile per medium
        )
        mdd = archive_object(heaven)
        entry = heaven._archived[mdd.name]
        assert [st.tile_ids for st in entry.super_tiles[:2]] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        now = heaven.clock.now
        specs = [
            QuerySpec(collection="col", object_name=mdd.name,
                      region=MInterval.of((0, 31), (0, 15)), arrival_s=now),
            QuerySpec(collection="col", object_name=mdd.name,
                      region=MInterval.of((0, 15), (48, 63)), arrival_s=now + 1.0),
        ]
        outputs, multi = AdmissionController(heaven).run(specs)
        for spec, cells in zip(specs, outputs):
            np.testing.assert_array_equal(cells, expected_cells(mdd, spec.region))
        stats = heaven.disk_cache.stats
        assert heaven.restages == 0
        assert stats.pins == stats.unpins == sum(q.pins for q in multi.queries) == 4
        assert multi.bytes_from_tape == 12 * 1024
        assert multi.makespan_s < 50.0
        heaven.assert_quiescent()


class TestZeroCopyPipeline:
    """Tentpole invariants: views not copies, and the counter proves it."""

    def test_memory_cached_tiles_are_read_only_views(self):
        heaven = make_heaven()
        mdd = archive_object(heaven)
        heaven.read("col", mdd.name, MInterval.of((0, 63), (0, 63)))
        seen = 0
        for tile_id in mdd.tiles:
            cells = heaven.memory_cache.get(mdd.name, tile_id)
            if cells is None:
                continue
            seen += 1
            assert not cells.flags.writeable
            # Zero-copy: the cached array is a VIEW over the staged
            # segment bytes, not an owning copy.
            assert not cells.flags.owndata
        assert seen > 0

    def test_result_does_not_alias_cache_memory(self):
        heaven = make_heaven()
        mdd = archive_object(heaven)
        out = heaven.read("col", mdd.name, MInterval.of((0, 63), (0, 63)))
        assert out.flags.writeable
        for tile_id in mdd.tiles:
            cells = heaven.memory_cache.get(mdd.name, tile_id)
            if cells is not None:
                assert not np.shares_memory(out, cells)

    def test_assembly_bytes_copied_stays_zero(self):
        heaven = make_heaven()
        mdd = archive_object(heaven)
        heaven.read("col", mdd.name, MInterval.of((0, 63), (0, 63)))
        heaven.read_many(
            [("col", mdd.name, MInterval.of((0, 31), (0, 31)))]
        )
        assert heaven.assembly_bytes_copied == 0

    def test_assembly_bytes_copied_counter_collected(self):
        heaven = make_heaven(observability=True)
        mdd = archive_object(heaven)
        heaven.read("col", mdd.name, MInterval.of((0, 15), (0, 15)))
        snapshot = heaven.obs.metrics.snapshot()
        assert "repro_assembly_bytes_copied_total" in snapshot
        assert sum(snapshot["repro_assembly_bytes_copied_total"].values()) == 0

    def test_compressed_read_round_trips(self):
        heaven = make_heaven(compression="zlib")
        mdd = archive_object(heaven)
        region = MInterval.of((0, 63), (0, 63))
        cells = heaven.read("col", mdd.name, region)
        np.testing.assert_array_equal(cells, expected_cells(mdd, region))

    def test_inflating_read_copies_nothing(self, monkeypatch):
        inflated = []
        decode = ZlibCodec.decompress_view

        def counting(codec, stored, size):
            inflated.append(not codec.decodes_to_view(stored))
            return decode(codec, stored, size)

        monkeypatch.setattr(ZlibCodec, "decompress_view", counting)
        heaven = make_heaven(compression="zlib")
        walk = np.random.default_rng(1).standard_normal((64, 64)).cumsum(axis=1)
        field = (np.round(walk * 4) / 4).astype(np.float32)  # DEFLATE frames
        mdd = MDD.from_array("f", field, tiling=RegularTiling((16, 16)))
        heaven.insert("col", mdd)
        heaven.archive("col", mdd.name)
        heaven.library.unmount_all()
        cells = heaven.read("col", mdd.name, MInterval.of((0, 63), (0, 63)))
        np.testing.assert_array_equal(cells, field)
        assert inflated and all(inflated)
        assert heaven.assembly_bytes_copied == 0

    @pytest.mark.skipif(
        "libdeflate" not in compression._INFLATERS,
        reason="libdeflate is not installed on this host (decode uses zlib, "
        "which allocates the planes it returns)",
    )
    def test_inflate_copies_no_frame_body(self, monkeypatch):
        monkeypatch.setattr(
            compression, "_inflate_stream", compression._INFLATERS["libdeflate"]
        )
        walk = np.random.default_rng(0).standard_normal(32 * 1024).cumsum()
        raw = (np.round(walk * 4) / 4).astype(np.float32).tobytes()  # 128 KiB
        codec = ZlibCodec()
        frame = codec.compress(raw, 4)
        assert frame[0] == 1
        run = memoryview(b"\x00" * 3 + frame).toreadonly()[3:]  # a staged run
        codec.decompress_view(run, len(raw))  # this thread's scratch buffer
        tracemalloc.start()
        try:
            view = codec.decompress_view(run, len(raw))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bytes(view) == raw
        # the output only: no copy of the body, no fresh planes buffer
        assert peak < len(raw) + len(frame) // 2

    def test_update_after_zero_copy_read(self):
        """update() snapshots the frozen resolver views before patching."""
        heaven = make_heaven()
        mdd = archive_object(heaven)
        region = MInterval.of((0, 7), (0, 7))
        patch = np.full(region.shape, 9.5)
        heaven.update("col", mdd.name, region, patch)
        np.testing.assert_array_equal(
            heaven.read("col", mdd.name, region), patch
        )
