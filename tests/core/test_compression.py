"""Tests for per-tile compression of archived data."""

import numpy as np
import pytest

from repro.arrays import DOUBLE, ConstantSource, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, NoneCodec, ZlibCodec, codec_names, make_codec
from repro.errors import HeavenError
from repro.tertiary import MB


class TestCodecs:
    def test_names(self):
        assert codec_names() == ["none", "zlib"]

    def test_make_unknown_rejected(self):
        with pytest.raises(HeavenError):
            make_codec("lz4")

    def test_none_roundtrip(self):
        codec = NoneCodec()
        raw = b"abcdef"
        assert codec.decompress(codec.compress(raw), 6) == raw

    def test_none_size_mismatch_rejected(self):
        with pytest.raises(HeavenError):
            NoneCodec().decompress(b"abc", 5)

    def test_zlib_roundtrip(self):
        codec = ZlibCodec()
        raw = bytes(range(256)) * 16
        stored = codec.compress(raw)
        assert codec.decompress(stored, len(raw)) == raw

    def test_zlib_compresses_redundant_data(self):
        codec = ZlibCodec()
        raw = b"\x00" * 4096
        assert len(codec.compress(raw)) < 100

    def test_zlib_wrong_expected_size_rejected(self):
        codec = ZlibCodec()
        stored = codec.compress(b"x" * 100)
        with pytest.raises(HeavenError):
            codec.decompress(stored, 99)

    def test_zlib_level_validated(self):
        with pytest.raises(HeavenError):
            ZlibCodec(level=0)

    def test_stored_size_real_vs_estimated(self):
        # real: the frame's length; size-only mode: the 0.6 ratio estimate
        codec = ZlibCodec()
        raw = b"\x01" * 1000
        assert len(codec.compress(raw)) < 100
        assert codec.estimated_size(1000) == 600
        assert NoneCodec().estimated_size(1000) == 1000

    def test_stored_size_never_zero(self):
        assert ZlibCodec().estimated_size(0) == 1

    def test_incompressible_data_takes_stored_frame(self):
        # DEFLATE saves < 1/16 on high-entropy bytes -> raw is stored
        # verbatim behind a one-byte marker instead of inflating forever.
        codec = ZlibCodec()
        raw = np.random.default_rng(1).bytes(4096)
        stored = codec.compress(raw)
        assert stored == b"\x00" + raw
        assert codec.decompress(stored, 4096) == raw

    def test_stored_frame_view_is_zero_copy(self):
        codec = ZlibCodec()
        raw = np.random.default_rng(2).bytes(1024)
        stored = codec.compress(raw)
        view = codec.decompress_view(stored, 1024)
        assert view.readonly
        assert view.obj is stored  # a view over the frame, not a copy

    def test_stored_frame_size_mismatch_rejected(self):
        codec = ZlibCodec()
        stored = codec.compress(np.random.default_rng(3).bytes(512))
        with pytest.raises(HeavenError):
            codec.decompress(stored, 511)
        with pytest.raises(HeavenError):
            codec.decompress_view(stored, 513)

    def test_corrupt_frame_marker_rejected(self):
        codec = ZlibCodec()
        with pytest.raises(HeavenError):
            codec.decompress(b"\x07garbage", 7)
        with pytest.raises(HeavenError):
            codec.decompress(b"", 0)


def build_heaven(compression: str, source=None, retain=True):
    heaven = Heaven(
        HeavenConfig(
            compression=compression,
            super_tile_bytes=256 * 1024,
            disk_cache_bytes=32 * MB,
            memory_cache_bytes=8 * MB,
            retain_payload=retain,
        )
    )
    heaven.create_collection("col")
    mdd = MDD(
        "obj",
        MInterval.of((0, 127), (0, 127)),
        DOUBLE,
        tiling=RegularTiling((32, 32)),
        source=source if source is not None else ConstantSource(3.0),
    )
    heaven.insert("col", mdd)
    heaven.archive("col", "obj")
    return heaven, mdd


class TestCompressedArchive:
    def test_compressed_archive_uses_less_tape(self):
        plain, _ = build_heaven("none")
        packed, _ = build_heaven("zlib")
        plain_bytes = sum(m.used_bytes for m in plain.library.media())
        packed_bytes = sum(m.used_bytes for m in packed.library.media())
        assert packed_bytes < plain_bytes / 10  # constant field: huge ratio

    def test_reads_stay_correct_through_compression(self):
        source = HashedNoiseSource(3, 0.0, 50.0)
        heaven, mdd = build_heaven("zlib", source=source)
        region = MInterval.of((10, 90), (40, 110))
        expect = source.region(region, DOUBLE)
        assert np.array_equal(heaven.read("col", "obj", region), expect)

    def test_retrieval_moves_compressed_bytes(self):
        heaven, mdd = build_heaven("zlib")
        region = MInterval.of((0, 31), (0, 31))  # exactly one tile
        _cells, report = heaven.read_with_report("col", "obj", region)
        assert report.bytes_from_tape < mdd.tiles[0].size_bytes

    def test_stored_sizes_recorded(self):
        heaven, mdd = build_heaven("zlib")
        entry = heaven.archived("obj")
        assert entry.stored_sizes is not None
        assert set(entry.stored_sizes) == set(mdd.tiles)
        assert all(s >= 1 for s in entry.stored_sizes.values())

    def test_update_recompresses(self):
        source = HashedNoiseSource(5, 0.0, 9.0)
        heaven, mdd = build_heaven("zlib", source=source)
        region = MInterval.of((0, 31), (0, 31))
        patch = np.arange(1024, dtype=np.float64).reshape(32, 32)
        heaven.update("col", "obj", region, patch)
        assert np.array_equal(heaven.read("col", "obj", region), patch)
        # Untouched cells survive the recompression.
        other = MInterval.of((64, 95), (64, 95))
        assert np.array_equal(
            heaven.read("col", "obj", other), source.region(other, DOUBLE)
        )

    def test_size_only_mode_uses_estimate(self):
        heaven, mdd = build_heaven("zlib", retain=False)
        entry = heaven.archived("obj")
        tile_size = mdd.tiles[0].size_bytes
        assert all(
            s == int(tile_size * 0.6) for s in entry.stored_sizes.values()
        )
        # Reads fall back to the deterministic source and stay correct.
        region = MInterval.of((0, 10), (0, 10))
        assert np.array_equal(
            heaven.read("col", "obj", region),
            np.full((11, 11), 3.0),
        )

    def test_reimport_after_compressed_archive(self):
        source = HashedNoiseSource(9, -4.0, 4.0)
        heaven, mdd = build_heaven("zlib", source=source)
        whole = source.region(mdd.domain, DOUBLE)
        heaven.reimport("col", "obj")
        assert np.array_equal(mdd.read_all(), whole)

    def test_invalid_codec_name_rejected_at_config(self):
        with pytest.raises(HeavenError):
            Heaven(HeavenConfig(compression="lzma"))
