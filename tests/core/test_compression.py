"""Tests for per-tile compression of archived data."""

import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.arrays import DOUBLE, ConstantSource, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, NoneCodec, ZlibCodec, codec_names, make_codec
from repro.core import compression
from repro.errors import HeavenError
from repro.tertiary import MB

needs_libzstd = pytest.mark.skipif(
    "zstd" not in compression._ENCODERS,
    reason="libzstd is not installed on this host (frames are DEFLATE frames)",
)


class TestCodecs:
    def test_names(self):
        assert codec_names() == ["none", "zlib"]

    def test_make_unknown_rejected(self):
        with pytest.raises(HeavenError):
            make_codec("lz4")

    def test_none_roundtrip(self):
        codec = NoneCodec()
        raw = b"abcdef"
        assert bytes(codec.decompress_view(codec.compress(raw), 6)) == raw

    def test_none_size_mismatch_rejected(self):
        with pytest.raises(HeavenError):
            NoneCodec().decompress_view(b"abc", 5)

    def test_zlib_roundtrip(self):
        codec = ZlibCodec()
        raw = bytes(range(256)) * 16
        stored = codec.compress(raw)
        assert bytes(codec.decompress_view(stored, len(raw))) == raw

    def test_zlib_compresses_redundant_data(self):
        codec = ZlibCodec()
        raw = b"\x00" * 4096
        assert len(codec.compress(raw)) < 100

    def test_zlib_wrong_expected_size_rejected(self):
        codec = ZlibCodec()
        stored = codec.compress(b"x" * 100)
        with pytest.raises(HeavenError):
            codec.decompress_view(stored, 99)

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
        # compression saves < 1/16 on high-entropy bytes -> raw is stored
        # verbatim behind a one-byte marker instead of decoding forever.
        codec = ZlibCodec()
        raw = np.random.default_rng(1).bytes(4096)
        stored = codec.compress(raw)
        assert stored == b"\x00" + raw
        assert bytes(codec.decompress_view(stored, 4096)) == raw

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
            bytes(codec.decompress_view(stored, 511))
        with pytest.raises(HeavenError):
            codec.decompress_view(stored, 513)

    def test_corrupt_frame_marker_rejected(self):
        codec = ZlibCodec()
        with pytest.raises(HeavenError):
            codec.decompress_view(b"\x07garbage", 7)
        with pytest.raises(HeavenError):
            codec.decompress_view(b"", 0)


def quantised(n: int) -> bytes:
    """*n* coherent float32 cells on a 0.25 grid: what compressed frames are for."""
    walk = np.random.default_rng(0).standard_normal(n).cumsum()
    return (np.round(walk * 4) / 4).astype(np.float32).tobytes()


def planes_of(raw: bytes, itemsize: int) -> bytes:
    return np.frombuffer(raw, np.uint8).reshape(-1, itemsize).T.tobytes()


def zstd_stream(data: bytes) -> bytes:
    """One zstd frame of *data* as one byte plane, as the codec's encoder
    writes it."""
    return compression._ENCODERS["zstd"][1](np.frombuffer(data, np.uint8).reshape(1, -1), 1 << 24)


def marker_of(encoder: str) -> int:
    return compression._ENCODERS[encoder][0]


class TestShuffledFrame:
    def test_frame_layout(self):
        # marker, itemsize, then one stream of the byte planes; the
        # stream's bytes are the encoder's
        raw = quantised(1024)
        for encoder in compression._ENCODERS:
            with encoding_with(encoder):
                frame = ZlibCodec().compress(raw, 4)
            assert frame[:2] == bytes((marker_of(encoder), 4))
            if encoder == "zlib":  # a host without libzstd writes what it always did
                assert frame[2:] == zlib.compress(planes_of(raw, 4), 1)
            else:
                # one checksummed zstd frame that declares the planes' size
                assert frame[2:6] == b"\x28\xb5\x2f\xfd"
                assert frame[6] & 0x04
                planes = memoryview(bytearray(len(raw)))
                compression._DECODERS[marker_of(encoder)](memoryview(frame)[2:], planes)
                assert bytes(planes) == planes_of(raw, 4)

    @pytest.mark.parametrize("encoder", sorted(compression._ENCODERS))
    @pytest.mark.parametrize("host", sorted(compression._ENCODERS))
    @pytest.mark.parametrize("itemsize", [1, 4, 8])
    def test_round_trip_across_backends(self, encoder, host, itemsize):
        """Frames written by *encoder*, read on a host whose encoder is
        *host*: a ``zlib`` host has no libzstd, so it reads DEFLATE frames
        and rejects zstd frames typed."""
        codec = ZlibCodec()
        raw = quantised(2048)
        with encoding_with(encoder):
            stored = codec.compress(raw, itemsize)
        assert stored[0] == marker_of(encoder)
        with decoding_on(host):
            for decode in decoders(codec):
                if encoder == "zstd" and host == "zlib":
                    with pytest.raises(HeavenError):
                        decode(stored, len(raw))
                else:
                    assert decode(stored, len(raw)) == raw

    @pytest.mark.parametrize("raw, itemsize", [
        pytest.param(quantised(32**3), 4, id="quantised"),
        pytest.param(np.random.default_rng(7).bytes(4 * 32**3), 4, id="incompressible"),
    ])
    def test_backends_agree_on_stored_frames(self, raw, itemsize):
        stored = set()
        for encoder in compression._ENCODERS:
            with encoding_with(encoder):
                frame = ZlibCodec().compress(raw, itemsize)
            stored.add(frame[0] == 0)
            if frame[0] == 0:
                assert frame == b"\x00" + raw
            else:
                assert frame[0] == marker_of(encoder)
                assert len(frame) < len(raw) - (len(raw) >> 4) + 2
        assert len(stored) == 1

    @pytest.mark.parametrize("itemsize", [1, 2, 3, 4, 8])
    def test_round_trip_per_itemsize(self, itemsize):
        codec = ZlibCodec()
        raw = bytes(range(256)) * (3 * itemsize)
        stored = codec.compress(raw, itemsize)
        assert stored[:2] == bytes((marker_of(compression.ENCODER), itemsize))
        for decode in decoders(codec):
            assert decode(stored, len(raw)) == raw

    @pytest.mark.parametrize("codec, raw, marker", [
        pytest.param(ZlibCodec(), np.random.default_rng(5).bytes(4096), 0, id="stored"),
        pytest.param(NoneCodec(), quantised(1024), None, id="none"),
    ])
    def test_round_trip_other_frames(self, codec, raw, marker):
        stored = codec.compress(raw, 4)
        if marker is not None:
            assert stored[0] == marker
        for decode in decoders(codec):
            assert decode(stored, len(raw)) == raw

    @pytest.mark.parametrize("encoder", sorted(compression._ENCODERS))
    def test_concurrent_encodes_match_serial(self, encoder):
        # one compressor per thread: threads never share encoder state
        codec = ZlibCodec()
        rng = np.random.default_rng(9)
        raws = [
            quantised(int(n)) if k % 2 else rng.integers(0, 4, 4 * int(n), np.uint8).tobytes()
            for k, n in enumerate(rng.integers(64, 4096, 200))
        ]
        with encoding_with(encoder):
            serial = [codec.compress(raw, 4) for raw in raws]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                with ThreadPoolExecutor(4) as pool:
                    threaded = list(pool.map(codec.compress, raws, [4] * len(raws), timeout=60))
            finally:
                sys.setswitchinterval(interval)
        assert threaded == serial
        assert all(
            bytes(codec.decompress_view(frame, len(raw))) == raw
            for frame, raw in zip(serial, raws)
        )

    def test_shuffle_beats_plain_level_6_on_quantised_floats(self):
        raw = quantised(32**3)
        assert len(ZlibCodec().compress(raw, 4)) < 1 + len(zlib.compress(raw, 6))
        # and the encoder of a host with or without libzstd
        for encoder in compression._ENCODERS:
            with encoding_with(encoder):
                assert len(ZlibCodec().compress(raw, 4)) < 1 + len(zlib.compress(raw, 6))

    def test_hashed_noise_doubles_deflate(self):
        # plain level 6 saves ~5 % on these (a stored frame); the planes'
        # exponent bytes repeat, so the shuffled frame saves ~11 %
        cells = HashedNoiseSource(3, 0.0, 50.0).region(MInterval.of((0, 31), (0, 31)), DOUBLE)
        raw = cells.tobytes()
        assert len(zlib.compress(raw, 6)) >= len(raw) - (len(raw) >> 4)
        stored = ZlibCodec().compress(raw, 8)
        assert stored[0] == marker_of(compression.ENCODER)
        assert len(stored) < 0.9 * len(raw)

    def test_wide_cells_deflate_as_one_plane(self):
        codec = ZlibCodec()
        raw = bytes(512) * 3
        stored = codec.compress(raw, 512)
        assert stored[:2] == bytes((marker_of(compression.ENCODER), 1))
        assert bytes(codec.decompress_view(stored, len(raw))) == raw

    @pytest.mark.parametrize("itemsize", [0, -1, 2])
    def test_partial_cells_rejected(self, itemsize):
        with pytest.raises(HeavenError):
            ZlibCodec().compress(b"abc", itemsize)


def decoders(codec):
    """Every decode path of *codec*, each as ``stored, size -> bytes``."""

    def into(stored, size):
        out = memoryview(bytearray(size))
        assert codec.decompress_into(stored, out) == size
        return bytes(out)

    def into_cells(stored, size):
        # an ndarray of 4-byte cells: *out* is measured in bytes, not items
        dtype = np.dtype(np.float32 if size % 4 == 0 else np.uint8)
        out = np.empty(size // dtype.itemsize, dtype)
        assert codec.decompress_into(stored, memoryview(out)) == size
        return out.tobytes()

    return [
        lambda stored, size: bytes(codec.decompress_view(stored, size)),
        into,
        into_cells,
    ]


@contextmanager
def encoding_with(name):
    """Write new frames through encoder *name* for the duration."""
    saved = compression._encoder
    compression._encoder = compression._ENCODERS[name]
    try:
        yield
    finally:
        compression._encoder = saved


@contextmanager
def decoding_on(host):
    """Decode with the decoders of a host whose encoder is *host*: a
    ``zlib`` host is one where libzstd does not load."""
    saved = dict(compression._DECODERS)
    if host == "zlib":
        compression._DECODERS.pop(compression._Z_ZSTD, None)
    try:
        yield
    finally:
        compression._DECODERS.clear()
        compression._DECODERS.update(saved)


def last_byte_flipped(data):
    return data[:-1] + bytes((data[-1] ^ 0xFF,))


def bomb(size):
    """A one-byte-cell DEFLATE frame that inflates to 64 x *size* bytes."""
    return b"\x01\x01" + zlib.compress(bytes(64 * size))


def zstd_bomb(size):
    """A one-byte-cell zstd frame that decodes to 64 x *size* bytes."""
    return b"\x02\x01" + zstd_stream(bytes(64 * size))


def without_checksum(frame):
    """*frame*, a checksummed zstd frame, rewritten as a valid frame
    without the checksum: the descriptor's flag cleared, the 4 bytes cut."""
    descriptor = frame[4] & ~0x04
    return frame[:4] + bytes((descriptor,)) + frame[5:-4]


def payload_byte_flipped(frame):
    """*frame* with one byte of its raw block flipped: the block still
    parses, so only the content checksum can tell."""
    middle = len(frame) // 2
    return frame[:middle] + bytes((frame[middle] ^ 0x01,)) + frame[middle + 1:]


def truncation_cases(check):
    """*check* as a Hypothesis test.  Each class needs its own wrapper: one
    Hypothesis test must not run on two classes."""
    return settings(max_examples=40, deadline=None)(given(
        itemsize=st.sampled_from([1, 2, 3, 4, 8]),
        cells=st.integers(64, 600),
        seed=st.integers(0, 2**16),
        cut=st.integers(1, 64),
        tail=st.binary(min_size=1, max_size=8),
    )(check))


class TestDamagedFrames:
    """A damaged frame fails typed on every decode path, never with a
    stray ``zlib.error`` and never by decoding to something; a good frame
    decodes the same from any buffer and from any thread.

    These run on DEFLATE frames (``zlib``'s encoder); the subclass below
    runs every case again on zstd frames.
    """

    encoder = "zlib"

    @pytest.fixture(autouse=True, scope="class")
    def backend(self, request):
        with encoding_with(request.cls.encoder):
            yield

    def bomb_frame(self, size):
        return bomb(size)

    @pytest.mark.parametrize("stored, size", [
        pytest.param(b"\x01garbage", 8, id="itemsize-103"),
        pytest.param(b"\x01\x01garbage", 7, id="bad-header-check"),
        pytest.param(b"\x01\x00" + zlib.compress(b"a" * 100), 100, id="itemsize-0"),
        pytest.param(b"\x01\x03" + zlib.compress(b"a" * 100), 100, id="itemsize-not-dividing"),
        pytest.param(b"\x01\x01" + zlib.compress(b"a" * 100)[:-6], 100, id="truncated"),
        pytest.param(b"\x01\x01" + zlib.compress(b"a" * 100) + b"xx", 100, id="trailing-bytes"),
        pytest.param(b"\x01\x01" + zlib.compress(b"a" * 100), 99, id="too-long"),
        pytest.param(b"\x01\x01" + zlib.compress(b"a" * 100), 101, id="too-short"),
        pytest.param(b"\x01\x01" + zlib.compress(b"a"), 0, id="nothing-expected"),
        pytest.param(b"\x01", 4, id="no-header"),
        pytest.param(b"\x01\x01" + last_byte_flipped(zlib.compress(b"a" * 100)), 100, id="adler-32"),
        pytest.param(bomb(100), 100, id="bomb"),
        pytest.param(b"\x01\x04" + zlib.compress(bytes(6400)), 100, id="bomb-planes"),
    ])
    def test_rejected_typed(self, stored, size):
        for decode in decoders(ZlibCodec()):
            with pytest.raises(HeavenError):
                decode(stored, size)

    def test_decodes_through_its_backend(self):
        frame = ZlibCodec().compress(quantised(1024), 4)
        assert frame[0] == marker_of(self.encoder)
        assert frame[0] in compression._DECODERS

    def test_bomb_writes_nothing_past_the_tile(self):
        buffer = bytearray(b"\xaa" * 300)
        with pytest.raises(HeavenError):
            ZlibCodec().decompress_into(self.bomb_frame(100), memoryview(buffer)[100:200])
        assert buffer[:100] == buffer[200:] == b"\xaa" * 100

    def test_read_only_output_refused(self):
        raw = quantised(1024)
        stored = ZlibCodec().compress(raw, 4)
        held = bytes(len(raw))
        with pytest.raises(TypeError):
            ZlibCodec().decompress_into(stored, memoryview(held))
        assert held == bytes(len(raw))

    @pytest.mark.parametrize("itemsize", [1, 4])
    def test_any_buffer_kind_decodes(self, itemsize):
        codec = ZlibCodec()
        raw = quantised(2048)
        stored = codec.compress(raw, itemsize)
        assert stored[0] == marker_of(self.encoder)
        staged = b"\x00" * 7 + stored + b"\x00" * 5  # a frame inside a staged run
        held = [
            stored,
            bytearray(stored),
            memoryview(staged)[7 : 7 + len(stored)].toreadonly(),
        ]
        for frame in held:
            for decode in decoders(codec):
                assert decode(frame, len(raw)) == raw

    def test_concurrent_decodes_match_serial(self):
        codec = ZlibCodec()
        rng = np.random.default_rng(6)
        raws = [
            quantised(int(n)) if k % 2 else rng.integers(0, 4, 4 * int(n), np.uint8).tobytes()
            for k, n in enumerate(rng.integers(64, 4096, 200))
        ]
        frames = [codec.compress(raw, 4 if k % 3 else 1) for k, raw in enumerate(raws)]
        assert all(frame[0] == marker_of(self.encoder) for frame in frames)

        def decode(k):
            return bytes(codec.decompress_view(frames[k], len(raws[k])))

        serial = [decode(k) for k in range(len(frames))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(decode, range(len(frames)), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial == raws

    def check_truncated_or_extended(self, itemsize, cells, seed, cut, tail):
        # two bits of entropy per byte: a compressed frame, but for some
        # small tiles a zstd frame's fixed cost (header, block headers,
        # checksum) does not save 1/16 and the tile is stored verbatim
        raw = np.random.default_rng(seed).integers(0, 4, cells * itemsize, np.uint8).tobytes()
        with encoding_with(self.encoder):
            stored = ZlibCodec().compress(raw, itemsize)
        if self.encoder == "zlib":
            assert stored[0] == marker_of(self.encoder)
        assume(stored[0] == marker_of(self.encoder))
        for damaged in (stored[: max(2, len(stored) - cut)], stored + tail):
            for decode in decoders(ZlibCodec()):
                with pytest.raises(HeavenError):
                    decode(damaged, len(raw))

    test_truncated_or_extended_deflate_frames_rejected = truncation_cases(
        check_truncated_or_extended
    )


#: damaged zstd frames, each built lazily (libzstd may be missing) as
#: ``stored, size``
ZSTD_DAMAGE = [
    pytest.param(lambda: (b"\x03\x01" + zstd_stream(b"a" * 100), 100), id="bad-marker"),
    pytest.param(lambda: (b"\x02garbage", 8), id="itemsize-103"),
    pytest.param(lambda: (b"\x02\x00" + zstd_stream(b"a" * 100), 100), id="itemsize-0"),
    pytest.param(lambda: (b"\x02\x03" + zstd_stream(b"a" * 100), 100),
                 id="itemsize-not-dividing"),
    pytest.param(lambda: (b"\x02", 4), id="no-header"),
    pytest.param(lambda: (b"\x02\x01garbage", 7), id="bad-magic"),
    pytest.param(lambda: (b"\x02\x01" + zlib.compress(b"a" * 100), 100), id="deflate-stream"),
    pytest.param(lambda: (b"\x02\x01" + zstd_stream(b"a" * 100)[:-6], 100), id="truncated"),
    pytest.param(lambda: (b"\x02\x01" + zstd_stream(b"a" * 100)[:-2], 100),
                 id="truncated-checksum"),
    pytest.param(lambda: (b"\x02\x01" + zstd_stream(b"a" * 100)[:5], 100), id="header-only"),
    pytest.param(lambda: (b"\x02\x01" + zstd_stream(b"a" * 100) + b"xx", 100),
                 id="trailing-bytes"),
    # an empty second frame: libzstd alone would decode both, to 100 B
    pytest.param(lambda: (b"\x02\x01" + zstd_stream(b"a" * 100) + zstd_stream(b""), 100),
                 id="trailing-frame"),
    pytest.param(lambda: (b"\x02\x01" + zstd_stream(b"a" * 100), 99), id="too-long"),
    pytest.param(lambda: (b"\x02\x01" + zstd_stream(b"a" * 100), 101), id="too-short"),
    pytest.param(lambda: (b"\x02\x01" + zstd_stream(b"a"), 0), id="nothing-expected"),
    pytest.param(lambda: (b"\x02\x01" + last_byte_flipped(zstd_stream(b"a" * 100)), 100),
                 id="checksum-bytes"),
    pytest.param(lambda: (b"\x02\x01" + payload_byte_flipped(
        zstd_stream(np.random.default_rng(4).bytes(1000))), 1000), id="payload-byte"),
    pytest.param(lambda: (b"\x02\x01" + without_checksum(zstd_stream(b"a" * 100)), 100),
                 id="no-checksum"),
    pytest.param(lambda: (zstd_bomb(100), 100), id="bomb"),
    pytest.param(lambda: (b"\x02\x04" + zstd_stream(bytes(6400)), 100), id="bomb-planes"),
]


@needs_libzstd
class TestDamagedFramesZstd(TestDamagedFrames):
    """Every damaged- and good-frame case again, on zstd frames."""

    encoder = "zstd"

    def bomb_frame(self, size):
        return zstd_bomb(size)

    @pytest.mark.parametrize("damage", ZSTD_DAMAGE)
    def test_rejected_typed(self, damage):
        stored, size = damage()
        for decode in decoders(ZlibCodec()):
            with pytest.raises(HeavenError):
                decode(stored, size)

    def test_damage_cases_are_one_flaw_each(self):
        # the hand-made frames differ from good ones by just their flaw
        data = np.random.default_rng(4).bytes(1000)
        intact = zstd_stream(data)
        assert bytes(ZlibCodec().decompress_view(b"\x02\x01" + intact, 1000)) == data
        assert len(intact) > 1000  # a raw block: every payload byte is a cell
        flipped = payload_byte_flipped(intact)
        assert sum(a != b for a, b in zip(flipped, intact)) == 1
        checked = zstd_stream(b"a" * 100)
        bare = without_checksum(checked)
        assert checked[4] & 0x04 and not bare[4] & 0x04
        assert bare[5:] == checked[5:-4]

    test_truncated_or_extended_deflate_frames_rejected = truncation_cases(
        TestDamagedFrames.check_truncated_or_extended
    )


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


def cold(heaven):
    """Drop every decoded tile and staged run: the next read goes to tape."""
    heaven.memory_cache.invalidate_object("obj")
    for key in heaven.disk_cache.keys():
        heaven.disk_cache.invalidate(key)


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

    @needs_libzstd
    def test_update_mixes_encoders_in_one_segment(self):
        """Archived under ``zlib``, updated under zstd: the rewritten
        segment carries old DEFLATE frames verbatim next to new zstd
        ones, and warm and cold reads match the oracle."""
        source = HashedNoiseSource(5, 0.0, 9.0)
        with encoding_with("zlib"):
            heaven, mdd = build_heaven("zlib", source=source)
        region = MInterval.of((0, 31), (0, 31))
        patch = np.arange(1024, dtype=np.float64).reshape(32, 32)
        with encoding_with("zstd"):
            heaven.update("col", "obj", region, patch)
        oracle = source.region(mdd.domain, DOUBLE)
        oracle[0:32, 0:32] = patch

        entry = heaven.archived("obj")
        patched = next(t for t in mdd.tiles.values() if t.domain == region)
        super_tile = entry.tile_to_st[patched.tile_id]
        key = super_tile.segment_name
        segment = heaven.library.medium(heaven.library.locate(key))._payloads[key]
        writers = set()
        for tile_id, (offset, length) in super_tile.tile_extents.items():
            frame = segment[offset : offset + length]
            cells = oracle[mdd.tiles[tile_id].domain.to_slices(mdd.domain)].tobytes()
            for name in compression._ENCODERS:
                with encoding_with(name):
                    if ZlibCodec().compress(cells, 8) == frame:
                        writers.add((tile_id == patched.tile_id, name))
        assert writers == {(True, "zstd"), (False, "zlib")}

        assert np.array_equal(heaven.read("col", "obj", mdd.domain), oracle)
        cold(heaven)
        cells, report = heaven.read_with_report("col", "obj", mdd.domain)
        assert report.bytes_from_tape > 0
        assert np.array_equal(cells, oracle)

    @needs_libzstd
    def test_zstd_archive_without_libzstd_fails_typed(self):
        """A cold read of zstd frames on a host where libzstd does not
        load fails with HeavenError; DEFLATE frames next to them still
        read."""
        source = HashedNoiseSource(5, 0.0, 9.0)
        heaven, mdd = build_heaven("zlib", source=source)
        cold(heaven)
        with decoding_on("zlib"), pytest.raises(HeavenError, match="libzstd"):
            heaven.read("col", "obj", mdd.domain)
        with encoding_with("zlib"):
            deflated, _ = build_heaven("zlib", source=source)
        cold(deflated)
        with decoding_on("zlib"):
            assert np.array_equal(
                deflated.read("col", "obj", mdd.domain), source.region(mdd.domain, DOUBLE)
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


@pytest.mark.parametrize("codec", ["none", "zlib"])
def test_damaged_segment_fails_typed(codec):
    """A segment one byte short fails the read with HeavenError under
    every codec: every staged frame decodes through the codec, which
    checks its size (an uncompressed one used to reach numpy unchecked)."""
    heaven = Heaven(
        HeavenConfig(compression=codec, super_tile_bytes=64 * 1024, min_super_tile_bytes=1024)
    )
    heaven.create_collection("col")
    cells = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
    heaven.insert("col", MDD.from_array("obj", cells, tiling=RegularTiling((16, 16))))
    heaven.archive("col", "obj")
    key = heaven.archived("obj").super_tiles[-1].segment_name
    medium = heaven.library.medium(heaven.library.locate(key))
    medium._payloads[key] = medium._payloads[key][:-1]
    with pytest.raises(HeavenError):
        heaven.read("col", "obj", MInterval.of((0, 63), (0, 63)))
