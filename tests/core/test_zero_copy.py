"""Regression tests for the zero-copy read path and its satellite bugfixes.

Three bugs are pinned here (each failed before its fix):

* the restage fallback in ``Heaven._resolve_tile`` trusted whatever run a
  re-stage landed without re-checking that it covers the tile — a
  narrower or shifted run (an interleaved batch re-planning the segment)
  made the disk-cache read raise on a negative offset or return the
  wrong bytes;
* ``MDD.from_array`` stored *views* of the caller's array as tile
  payloads, so a later ``mdd.write`` silently mutated the user's input
  in place (the copy-on-write guard never fired on a writable view);
* ``read_with_report`` attributed pins via a global ``stats.pins`` delta,
  charging the read for pins other (nested/interleaved) queries took
  between the two samples.

Plus the zero-copy pipeline invariants: decoded tiles are read-only
views, assembled results never alias cache memory, and the
``repro_assembly_bytes_copied_total`` counter stays at zero.
"""

import tracemalloc

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, ZlibCodec, compression
from repro.core.admission import AdmissionController, QuerySpec
from repro.core.heaven import StagingTicket
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
    """Satellite 1: a non-covering re-staged run must not be read through."""

    def _prime_fallback(self, heaven, mdd):
        """Drop the target tile's segment so the resolver must restage."""
        entry = heaven._archived[mdd.name]
        tile = mdd.tiles[0]
        super_tile = entry.super_tile_of(tile.tile_id)
        key = super_tile.segment_name
        if key in heaven.disk_cache:
            heaven.disk_cache.invalidate(key)
        entry.staged_runs.pop(key, None)
        heaven.memory_cache.invalidate_object(mdd.name)
        return entry, tile, super_tile, key

    def test_narrow_restage_falls_back_to_direct_stream(self, monkeypatch):
        """A re-stage that lands a run NOT covering the tile (an
        interleaved batch re-planned the segment around its own tiles)
        must fall through to the direct tape stream, not read wrong
        bytes.  Before the fix this raised CacheError on the negative
        in-run offset."""
        heaven = make_heaven()
        mdd = archive_object(heaven)
        entry, tile, super_tile, key = self._prime_fallback(heaven, mdd)

        # Target tile 0 sits at run offset 0; the hostile re-stage lands
        # a run starting past it, so (tile_offset - run[0]) goes negative.
        tile_offset, tile_length = super_tile.tile_extents[tile.tile_id]
        other_offset = max(
            off for off, _len in super_tile.tile_extents.values()
        )
        assert other_offset > tile_offset

        def hostile_stage(pairs, needs=None):
            # Every staging attempt (the read's batch, resolver fallback)
            # lands the same non-covering run and pins nothing.
            if key not in heaven.disk_cache:
                run = (other_offset, super_tile.size_bytes - other_offset)
                payload = heaven._segment_payload(key, run[0], run[1])
                heaven.disk_cache.insert(key, run[1], 1.0, payload=payload)
                entry.staged_runs[key] = run
            return StagingTicket(cache=heaven.disk_cache)

        monkeypatch.setattr(heaven, "_stage_many", hostile_stage)
        cells = heaven.read("col", mdd.name, tile.domain)
        np.testing.assert_array_equal(cells, expected_cells(mdd, tile.domain))
        assert heaven.restages >= 1

    def test_shifted_restage_does_not_decode_wrong_bytes(self, monkeypatch):
        """A shifted covering-length-but-wrong-offset run previously
        decoded the NEIGHBOUR tile's bytes silently."""
        heaven = make_heaven()
        mdd = archive_object(heaven)
        entry, tile, super_tile, key = self._prime_fallback(heaven, mdd)

        extents = sorted(super_tile.tile_extents.values())
        assert len(extents) >= 2
        second_offset, second_length = extents[1]

        def hostile_stage(pairs, needs=None):
            # Covers only the second tile's extent; same length as the
            # target's, so the old code read the neighbour's bytes.
            if key not in heaven.disk_cache:
                run = (second_offset, second_length)
                payload = heaven._segment_payload(key, run[0], run[1])
                heaven.disk_cache.insert(key, run[1], 1.0, payload=payload)
                entry.staged_runs[key] = run
            return StagingTicket(cache=heaven.disk_cache)

        monkeypatch.setattr(heaven, "_stage_many", hostile_stage)
        cells = heaven.read("col", mdd.name, tile.domain)
        np.testing.assert_array_equal(cells, expected_cells(mdd, tile.domain))

    def test_organic_restage_with_covering_run_reads_through(self):
        """The legitimate fallback ladder (resolver restages after an
        eviction, the run covers) keeps working unchanged."""
        heaven = make_heaven()
        mdd = archive_object(heaven)
        entry, tile, _super_tile, _key = self._prime_fallback(heaven, mdd)
        # Read the MDD directly, outside any staging batch: the resolver
        # hits the fallback cold and must restage for real.
        cells = mdd.read(tile.domain)
        np.testing.assert_array_equal(cells, expected_cells(mdd, tile.domain))
        assert heaven.restages >= 1


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
        them."""
        heaven = make_heaven()
        mdd = archive_object(heaven)
        region = MInterval.of((0, 15), (0, 15))
        heaven.read("col", mdd.name, region)  # warm
        # Kill the staged segment and the memory tiles: next read restages.
        entry = heaven._archived[mdd.name]
        for key in list(entry.staged_runs):
            if key in heaven.disk_cache:
                heaven.disk_cache.invalidate(key)
            entry.staged_runs.pop(key, None)
        heaven.memory_cache.invalidate_object(mdd.name)
        before = heaven.disk_cache.stats.pins
        _cells, report = heaven.read_with_report("col", mdd.name, region)
        assert report.pins == heaven.disk_cache.stats.pins - before

    def test_concurrent_queries_reconcile_lease_counts(self, monkeypatch):
        """A query's pins are its sweeps' pins plus its own ticket's, and
        the queries' own tickets took exactly the pins the sweeps handed
        over plus the ones their assembly restages took: no query is
        charged another's hand-over or restage pins."""
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
        hand_over, assemble = controller._hand_over_pins, controller._assemble
        stage_many = heaven._stage_many

        def counted_stage_many(pairs, needs=None):
            ticket = stage_many(pairs, needs)
            for qid in {q for need in (needs or {}).values() for q in need.query_ids}:
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

        monkeypatch.setattr(controller, "_hand_over_pins", counted_hand_over)
        monkeypatch.setattr(controller, "_assemble", counted_assemble)
        monkeypatch.setattr(heaven, "_stage_many", counted_stage_many)
        _outputs, multi = controller.run(
            [QuerySpec(collection=c, object_name=o, region=r) for c, o, r in requests]
        )
        tasks = controller._tasks
        assert sum(handed) > 0
        assert sum(task.ticket.pins for task in tasks) == sum(handed) + sum(restaged)
        for task, report in zip(tasks, multi.queries):
            assert report.pins == sweep_pins.get(task.qid, 0) + task.ticket.pins
        heaven.assert_quiescent()

    def test_admission_restage_pins_attributed_to_assembling_query(
        self, monkeypatch
    ):
        """Restage pins taken while an admission query assembles belong to
        that query, on top of its sweep's pins and the ones the sweep
        handed it: a lone query's pins are the run's whole pin traffic,
        as for a direct read."""
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
                heaven.disk_cache.pin_count(key) for key in entry.staged_runs
            )
            for key in list(entry.staged_runs):
                heaven.disk_cache.invalidate(key)
                entry.staged_runs.pop(key)
            heaven.memory_cache.invalidate_object(mdd.name)
            before = stats.pins
            assemble(task)
            seen["fallback"] = stats.pins - before

        monkeypatch.setattr(controller, "_assemble", drop_then_assemble)
        before = stats.pins
        (cells,), multi = controller.run(
            [QuerySpec(collection="col", object_name=mdd.name, region=region)]
        )
        np.testing.assert_array_equal(cells, expected_cells(mdd, region))
        (query,) = multi.queries
        assert query.restages > 0
        assert seen["held"] > 0 and seen["fallback"] > 0
        assert query.pins == stats.pins - before
        assert query.pins > seen["held"] + seen["fallback"]
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
