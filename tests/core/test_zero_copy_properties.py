"""Property tests for the zero-copy decode/assembly pipeline.

The zero-copy rewrite hands out read-only *views* over cache-owned
buffers instead of defensive copies, which moves the safety burden onto
three invariants this suite hammers with Hypothesis:

* **round-trip identity** — whatever shapes, tilings, codecs and read
  regions, the assembled cells are byte-identical to the source ground
  truth (a view with a wrong offset/stride corrupts silently, so this is
  checked cell-exact, not statistically);
* **no writable aliasing** — nothing the pipeline returns to a caller
  shares memory with a cache-owned array, and every cache-owned array is
  frozen (a writable alias lets one query corrupt another's bytes);
* **codec view/into variants agree with the plain path** — same bytes,
  proper overflow errors, read-only outputs.

A seed sweep over the whole-system simulation harness closes the loop:
the differential oracle replays every read against ground truth, so any
aliasing or stale-view bug the unit properties missed surfaces as a
byte-difference violation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import CHAR, DOUBLE, FLOAT, RGB, SHORT, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.core import compression
from repro.core.compression import NoneCodec, ZlibCodec
from repro.errors import HeavenError
from repro.simtest import generate_program, run_program
from repro.tertiary import MB

pytestmark = pytest.mark.property


# ---------------------------------------------------------------------------
# codec properties
# ---------------------------------------------------------------------------

CODECS = [NoneCodec(), ZlibCodec()]


#: 1-, 2-, 4- and 8-byte scalars and a 3-byte struct (RGB)
ITEMSIZES = [1, 2, 4, 8, 3]


@st.composite
def raw_payloads(draw):
    """``(raw, itemsize)``: a whole number of cells of one of ITEMSIZES."""
    itemsize = draw(st.sampled_from(ITEMSIZES))
    n = itemsize * draw(st.integers(min_value=1, max_value=4096 // itemsize))
    kind = draw(st.sampled_from(["random", "constant", "ramp", "quantised"]))
    if kind == "random":
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        return np.random.default_rng(seed).bytes(n), itemsize
    if kind == "constant":
        byte = draw(st.integers(min_value=0, max_value=255))
        return bytes([byte]) * n, itemsize
    if kind == "quantised":
        # coherent cells whose low bytes vary: a DEFLATE frame for itemsize > 1
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        walk = np.random.default_rng(seed).integers(-2, 3, n).cumsum()
        return (walk * 1021).astype(np.int64).astype(np.uint8).tobytes(), itemsize
    return bytes(i % 251 for i in range(n)), itemsize


class TestCodecViewVariants:
    @given(payload=raw_payloads())
    @settings(max_examples=60, deadline=None)
    def test_decompress_view_round_trips_read_only(self, payload):
        raw, itemsize = payload
        for codec in CODECS:
            stored = codec.compress(raw, itemsize)
            view = codec.decompress_view(stored, len(raw))
            assert isinstance(view, memoryview)
            assert view.readonly
            assert bytes(view) == raw

    @given(payload=raw_payloads())
    @settings(max_examples=60, deadline=None)
    def test_decompress_into_fills_exact_buffer(self, payload):
        raw, itemsize = payload
        for codec in CODECS:
            stored = codec.compress(raw, itemsize)
            out = memoryview(bytearray(len(raw)))
            n = codec.decompress_into(stored, out)
            assert n == len(raw)
            assert bytes(out) == raw

    @given(payload=raw_payloads())
    @settings(max_examples=20, deadline=None)
    def test_decompress_into_rejects_wrong_sized_buffer(self, payload):
        raw, itemsize = payload
        for codec in CODECS:
            stored = codec.compress(raw, itemsize)
            too_small = memoryview(bytearray(len(raw) - 1)) if len(raw) > 1 else None
            if too_small is not None:
                with pytest.raises(HeavenError):
                    codec.decompress_into(stored, too_small)
            too_big = memoryview(bytearray(len(raw) + 1))
            with pytest.raises(HeavenError):
                codec.decompress_into(stored, too_big)

    @given(payload=raw_payloads())
    @settings(max_examples=40, deadline=None)
    def test_view_matches_plain_decompress(self, payload):
        raw, itemsize = payload
        for codec in CODECS:
            stored = codec.compress(raw, itemsize)
            plain = bytearray(len(raw))
            codec.decompress_into(stored, memoryview(plain))
            assert bytes(codec.decompress_view(stored, len(raw))) == plain

    @given(payload=raw_payloads())
    @settings(max_examples=20, deadline=None)
    def test_memoryview_input_accepted(self, payload):
        # The staging pipeline hands codecs memoryview slices of staged
        # runs, not bytes.
        raw, itemsize = payload
        for codec in CODECS:
            stored = memoryview(codec.compress(raw, itemsize))
            assert bytes(codec.decompress_view(stored, len(raw))) == raw

    @given(payload=raw_payloads())
    @settings(max_examples=40, deadline=None)
    def test_only_stored_frames_decode_to_views(self, payload):
        raw, itemsize = payload
        codec = ZlibCodec()
        stored = codec.compress(raw, itemsize)
        if stored[0] != 0:  # a compressed frame names its cell size
            assert stored[1] == itemsize
        assert codec.decodes_to_view(stored) == (stored[0] == 0)
        view = codec.decompress_view(stored, len(raw))
        assert (view.obj is stored) == codec.decodes_to_view(stored)

    def test_every_itemsize_reaches_a_deflate_frame(self):
        walk = np.random.default_rng(0).integers(-2, 3, 4096).cumsum()
        raw = (walk * 1021).astype(np.int64).astype(np.uint8).tobytes()
        for itemsize in ITEMSIZES:
            stored = ZlibCodec().compress(raw[: len(raw) // itemsize * itemsize], itemsize)
            assert stored[:2] == bytes((compression._encoder[0], itemsize))


# ---------------------------------------------------------------------------
# end-to-end pipeline properties
# ---------------------------------------------------------------------------

@st.composite
def read_scenarios(draw):
    side = draw(st.integers(min_value=8, max_value=40))
    tile = draw(st.integers(min_value=4, max_value=16))
    compression = draw(st.sampled_from(["none", "zlib"]))
    cell_type = draw(st.sampled_from([CHAR, SHORT, FLOAT, DOUBLE, RGB]))
    seed = draw(st.integers(min_value=0, max_value=999))
    lo0 = draw(st.integers(min_value=0, max_value=side - 1))
    hi0 = draw(st.integers(min_value=lo0, max_value=side - 1))
    lo1 = draw(st.integers(min_value=0, max_value=side - 1))
    hi1 = draw(st.integers(min_value=lo1, max_value=side - 1))
    return side, tile, compression, cell_type, seed, ((lo0, hi0), (lo1, hi1))


def build_archived(side, tile, compression, cell_type, seed):
    heaven = Heaven(
        HeavenConfig(
            super_tile_bytes=8 * 1024,
            disk_cache_bytes=64 * 1024,
            memory_cache_bytes=16 * MB,
            compression=compression,
        )
    )
    heaven.create_collection("col")
    mdd = MDD(
        "obj",
        MInterval.of((0, side - 1), (0, side - 1)),
        cell_type,
        tiling=RegularTiling((tile, tile)),
        source=HashedNoiseSource(seed, 0.0, 5.0),
    )
    heaven.insert("col", mdd)
    heaven.archive("col", "obj")
    heaven.library.unmount_all()
    return heaven, mdd


class TestPipelineProperties:
    @given(scenario=read_scenarios())
    @settings(max_examples=25, deadline=None)
    def test_read_is_byte_identical_to_ground_truth(self, scenario):
        side, tile, compression, cell_type, seed, bounds = scenario
        heaven, mdd = build_archived(side, tile, compression, cell_type, seed)
        region = MInterval.of(*bounds)
        cells = heaven.read("col", "obj", region)
        expected = mdd.source.region(region, mdd.cell_type)
        assert cells.tobytes() == expected.tobytes()

    @given(scenario=read_scenarios())
    @settings(max_examples=15, deadline=None)
    def test_results_never_alias_cache_and_cache_is_frozen(self, scenario):
        side, tile, compression, cell_type, seed, bounds = scenario
        heaven, mdd = build_archived(side, tile, compression, cell_type, seed)
        region = MInterval.of(*bounds)
        cells = heaven.read("col", "obj", region)
        assert cells.flags.writeable
        for tile_id in mdd.tiles:
            cached = heaven.memory_cache.get("obj", tile_id)
            if cached is None:
                continue
            assert not cached.flags.writeable
            assert not np.shares_memory(cells, cached)

    @given(scenario=read_scenarios())
    @settings(max_examples=15, deadline=None)
    def test_repeated_reads_stable_and_copyless(self, scenario):
        """A second read over warmed caches returns the same bytes and
        still performs zero redundant assembly copies — cached views stay
        intact across reads."""
        side, tile, compression, cell_type, seed, bounds = scenario
        heaven, mdd = build_archived(side, tile, compression, cell_type, seed)
        region = MInterval.of(*bounds)
        first = heaven.read("col", "obj", region).copy()
        second = heaven.read("col", "obj", region)
        assert first.tobytes() == second.tobytes()
        assert heaven.assembly_bytes_copied == 0

    @given(scenario=read_scenarios())
    @settings(max_examples=10, deadline=None)
    def test_mutating_result_does_not_corrupt_cache(self, scenario):
        """The caller owns the result array outright: writing to it must
        not leak into cached tiles (the aliasing bug class the pipeline's
        copy discipline exists to prevent)."""
        side, tile, compression, cell_type, seed, bounds = scenario
        heaven, mdd = build_archived(side, tile, compression, cell_type, seed)
        region = MInterval.of(*bounds)
        cells = heaven.read("col", "obj", region)
        cells.view(np.uint8).fill(0xA5)
        again = heaven.read("col", "obj", region)
        expected = mdd.source.region(region, mdd.cell_type)
        assert again.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# whole-system differential sweep
# ---------------------------------------------------------------------------

class TestSimtestByteIdentity:
    """The simulation harness replays read/read_many/read_frame/update
    against a ground-truth oracle; a clean sweep means the zero-copy
    rewrite changed no observable bytes anywhere in the op mix."""

    @pytest.mark.parametrize("seed", range(25))
    def test_seed_sweep_byte_identical(self, seed):
        result = run_program(generate_program(seed, num_ops=12))
        assert result.ok, result.summary()
