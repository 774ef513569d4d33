"""Every tile frame is encoded once per content version.

``archive`` encodes each tile exactly once and exports those frames;
``update`` re-encodes only the tiles its region touches and carries every
other frame of a rewritten super-tile over verbatim from the old segment;
batches run through :meth:`Codec.compress_all`, which must be
byte-identical to the serial per-tile map.  ``update`` writes every new
segment before it switches the catalog and releases the old ones, so a
failed update leaves the object readable with its old bytes.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import FaultPlan, RetryExhaustedError
from repro.arrays import MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, NoneCodec, ZlibCodec, compression
from repro.errors import StorageError
from repro.tertiary import MB

SIDE = 64
TILE = 16
#: 4 tiles of 2 KiB per super-tile -> 4 super-tiles of the 16-tile object
SUPER_TILE_BYTES = 8 * 1024


def mixed_cells(seed: int) -> np.ndarray:
    """Half quantised (DEFLATE frames), half noise (stored frames)."""
    rng = np.random.default_rng(seed)
    cells = rng.standard_normal((SIDE, SIDE))
    cells[:, : SIDE // 2] = np.round(cells[:, : SIDE // 2])
    return cells


def build(cells: np.ndarray, plan=None):
    heaven = Heaven(
        HeavenConfig(
            compression="zlib",
            super_tile_bytes=SUPER_TILE_BYTES,
            disk_cache_bytes=16 * MB,
            memory_cache_bytes=4 * MB,
            fault_plan=plan,
        )
    )
    heaven.create_collection("c")
    heaven.insert("c", MDD.from_array("o", cells, tiling=RegularTiling((TILE, TILE))))
    heaven.archive("c", "o")
    return heaven


def live_segments(heaven: Heaven) -> dict:
    return {
        segment.name: medium.payload(segment.name)
        for medium in heaven.library.media()
        for segment in medium.segments()
    }


def expected_segment(heaven: Heaven, super_tile, oracle: np.ndarray) -> bytes:
    """The serial per-tile encode of the oracle's tiles, in cluster order."""
    mdd = heaven.archived("o").mdd
    codec = ZlibCodec()
    return b"".join(
        codec.compress(
            np.ascontiguousarray(oracle[mdd.tiles[t].domain.to_slices(mdd.domain)]).tobytes(),
            oracle.dtype.itemsize,
        )
        for t in super_tile.tile_ids
    )


@pytest.fixture
def count_compress(monkeypatch):
    """Count ``ZlibCodec.compress`` calls, including the pool's."""
    calls = []
    original = ZlibCodec.compress

    def counting(self, raw, itemsize=1):
        calls.append(len(raw))
        return original(self, raw, itemsize)

    monkeypatch.setattr(ZlibCodec, "compress", counting)
    return calls


class TestCompressAll:
    @pytest.mark.parametrize("codec", [ZlibCodec(), NoneCodec()], ids=["zlib", "none"])
    def test_empty_and_single_batches(self, codec):
        raw = bytes(range(256)) * 8
        assert codec.compress_all([]) == []
        assert codec.compress_all([raw]) == [codec.compress(raw)]
        assert codec.compress_all([raw], 8) == [codec.compress(raw, 8)]

    def test_mixed_batch_equals_serial_map(self):
        rng = np.random.default_rng(7)
        raws = [
            b"\x00" * 4096,                          # DEFLATE frame
            rng.bytes(4096),                         # stored-frame fallback
            bytes(i % 251 for i in range(3000)),     # DEFLATE frame
            rng.bytes(16),                           # tiny, stored
            b"",                                     # empty tile body
        ] * 5
        codec = ZlibCodec()
        for itemsize in (1, 4):
            frames = codec.compress_all(raws, itemsize)
            assert frames == [codec.compress(raw, itemsize) for raw in raws]
            assert {frame[0] for frame in frames} == {0, 1}  # both frame kinds
            assert {frame[1] for frame in frames if frame[0] == 1} == {itemsize}

    def test_batch_runs_every_tile_through_compress(self, count_compress):
        raws = [bytes([i]) * 1000 for i in range(9)]
        ZlibCodec().compress_all(raws)
        assert sorted(count_compress) == [1000] * 9

    def test_concurrent_batches_share_one_pool(self, monkeypatch):
        monkeypatch.setattr(compression, "_encode_executor", None)
        codec = ZlibCodec()
        raws = [bytes([i % 7]) * 2048 + bytes(range(i)) for i in range(24)]
        expected = [codec.compress(raw) for raw in raws]
        results, pools = [], []

        def batch():
            pools.append(compression._encode_pool())
            results.append(codec.compress_all(raws))

        threads = [threading.Thread(target=batch) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            if compression._encode_executor is not None:
                compression._encode_executor.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(threads)
        assert len({id(pool) for pool in pools}) == 1


class TestEncodeCounts:
    def test_archive_encodes_each_tile_once(self, count_compress):
        heaven = build(mixed_cells(1))
        assert len(count_compress) == len(heaven.archived("o").mdd.tiles) == 16

    def test_update_encodes_only_dirty_tiles(self, count_compress):
        heaven = build(mixed_cells(2))
        count_compress.clear()
        entry = heaven.archived("o")
        # a 4x4 box across the shared corner of four tiles
        region = MInterval.of((14, 17), (30, 33))
        dirty = [t.tile_id for t in entry.mdd.tiles_for(region)]
        rewritten = {entry.super_tile_of(t).index for t in dirty}
        assert len(dirty) == 4
        assert sum(len(entry.super_tiles[i].tile_ids) for i in rewritten) > 4
        heaven.update("c", "o", region, np.full((4, 4), 5.0))
        assert len(count_compress) == 4


class TestSegmentsMatchSerialEncode:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        boxes=st.lists(
            st.tuples(
                st.integers(0, SIDE - 1), st.integers(0, SIDE - 1),
                st.integers(1, 24), st.integers(1, 24),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_every_live_segment_is_the_serial_encode(self, seed, boxes):
        oracle = mixed_cells(seed)
        heaven = build(oracle)
        oracle = oracle.copy()
        rng = np.random.default_rng(seed)
        for lo0, lo1, h, w, noisy in boxes:
            hi0, hi1 = min(SIDE - 1, lo0 + h - 1), min(SIDE - 1, lo1 + w - 1)
            shape = (hi0 - lo0 + 1, hi1 - lo1 + 1)
            patch = rng.standard_normal(shape) if noisy else np.full(shape, float(lo0))
            heaven.update("c", "o", MInterval.of((lo0, hi0), (lo1, hi1)), patch)
            oracle[lo0 : hi0 + 1, lo1 : hi1 + 1] = patch
        entry = heaven.archived("o")
        segments = live_segments(heaven)
        assert set(segments) == {st_.segment_name for st_ in entry.super_tiles}
        for super_tile in entry.super_tiles:
            expected = expected_segment(heaven, super_tile, oracle)
            assert segments[super_tile.segment_name] == expected
            assert super_tile.size_bytes == len(expected)
        heaven.library.unmount_all()
        assert np.array_equal(heaven.read("c", "o", entry.mdd.domain), oracle)


class TestFailedUpdate:
    def test_failed_update_keeps_old_bytes_readable(self):
        plan = FaultPlan()
        heaven = build(mixed_cells(3), plan=plan)
        domain = MInterval.of((0, SIDE - 1), (0, SIDE - 1))
        old = heaven.read("c", "o", domain).copy()
        segments_before = live_segments(heaven)
        heaven.library.unmount_all()
        plan.fail_next("mount", count=50)
        corner, patch = MInterval.of((0, 3), (0, 3)), np.full((4, 4), -1.0)
        with pytest.raises(RetryExhaustedError):
            heaven.update("c", "o", corner, patch)
        plan.reset()
        assert live_segments(heaven) == segments_before
        assert heaven.archived("o").version == 0
        # warm: through whatever the caches still hold
        assert np.array_equal(heaven.read("c", "o", domain), old)
        # cold: every cache level emptied, straight from tape
        heaven.memory_cache.invalidate_object("o")
        for key in heaven.disk_cache.keys():
            heaven.disk_cache.invalidate(key)
        assert np.array_equal(heaven.read("c", "o", domain), old)
        # the retry succeeds
        heaven.update("c", "o", corner, patch)
        expect = old.copy()
        expect[0:4, 0:4] = patch
        assert np.array_equal(heaven.read("c", "o", domain), expect)

    def test_write_failure_after_first_segment_rolls_back(self, monkeypatch):
        heaven = build(mixed_cells(4))
        segments_before = live_segments(heaven)
        stored_before = dict(heaven.archived("o").stored_sizes)
        original = heaven.library.write_segment
        writes = []

        def fail_second(name, length, payload=None, medium_id=None):
            writes.append(name)
            if len(writes) == 2:
                raise StorageError("injected write failure")
            return original(name, length, payload=payload, medium_id=medium_id)

        monkeypatch.setattr(heaven.library, "write_segment", fail_second)
        domain = MInterval.of((0, SIDE - 1), (0, SIDE - 1))
        with pytest.raises(StorageError):
            heaven.update("c", "o", domain, np.zeros((SIDE, SIDE)))
        assert len(writes) == 2
        assert live_segments(heaven) == segments_before
        assert heaven.archived("o").stored_sizes == stored_before
        assert all(t.payload is None for t in heaven.archived("o").mdd.tiles.values())
