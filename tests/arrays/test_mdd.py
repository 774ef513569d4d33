"""Tests for MDD objects, cell sources, tiles and collections."""

import zlib

import numpy as np
import pytest

from repro.arrays import (
    CHAR,
    Collection,
    ConstantSource,
    DOUBLE,
    FunctionSource,
    HashedNoiseSource,
    MDD,
    MInterval,
    RegularTiling,
    ZeroSource,
    struct_type,
    lookup,
)
from repro.errors import CellTypeError, DomainError
from tests.conftest import assert_exact_cover


class TestCellSources:
    DOMAIN = MInterval.of((0, 31), (0, 31))

    def test_zero_source(self):
        cells = ZeroSource().region(self.DOMAIN, DOUBLE)
        assert cells.shape == (32, 32)
        assert not cells.any()

    def test_constant_source(self):
        cells = ConstantSource(7.5).region(self.DOMAIN, DOUBLE)
        assert (cells == 7.5).all()

    def test_hashed_noise_deterministic(self):
        src = HashedNoiseSource(1)
        a = src.region(self.DOMAIN, DOUBLE)
        b = src.region(self.DOMAIN, DOUBLE)
        assert np.array_equal(a, b)

    def test_hashed_noise_overlap_consistency(self):
        """Reads of overlapping regions agree on the overlap — the property
        that makes lazy tiles equal however they are materialised."""
        src = HashedNoiseSource(5)
        whole = src.region(MInterval.of((0, 99), (0, 99)), DOUBLE)
        part = src.region(MInterval.of((37, 61), (13, 88)), DOUBLE)
        assert np.array_equal(part, whole[37:62, 13:89])

    @pytest.mark.parametrize(
        "seed, low, high, box, crc32",
        [
            (5, 0.0, 1.0, ((37, 140), (-13, 88)), 0x4F98A0A7),
            (11, -2.0, 3.0, ((60, 70), (-5, 3), (120, 130)), 0x6D9460E1),
            (3, 0.0, 9.0, ((62, 65), (126, 129), (-2, 1), (63, 64)), 0x87C90AA6),
        ],
    )
    def test_hashed_noise_field_is_pinned(self, seed, low, high, box, crc32):
        """The generated values are part of every seeded scenario's output:
        boxes straddling block boundaries on every axis must keep the
        digests recorded from the draw-the-full-block implementation."""
        cells = HashedNoiseSource(seed, low, high).region(MInterval.of(*box), DOUBLE)
        assert zlib.crc32(cells.tobytes()) == crc32

    def test_hashed_noise_seed_changes_field(self):
        a = HashedNoiseSource(1).region(self.DOMAIN, DOUBLE)
        b = HashedNoiseSource(2).region(self.DOMAIN, DOUBLE)
        assert not np.array_equal(a, b)

    def test_hashed_noise_range(self):
        cells = HashedNoiseSource(1, low=5.0, high=6.0).region(self.DOMAIN, DOUBLE)
        assert cells.min() >= 5.0 and cells.max() <= 6.0

    def test_function_source_gets_absolute_coords(self):
        src = FunctionSource(lambda x, y: x * 100 + y)
        cells = src.region(MInterval.of((2, 3), (10, 11)), DOUBLE)
        assert cells[0, 0] == 210
        assert cells[1, 1] == 311

    def test_struct_cells_from_noise(self):
        try:
            cell_type = lookup("pair_t")
        except CellTypeError:
            cell_type = struct_type("pair_t", [("a", "float"), ("b", "float")])
        cells = HashedNoiseSource(1).region(self.DOMAIN, cell_type)
        assert cells.dtype.names == ("a", "b")


class TestMDD:
    def test_read_assembles_across_tiles(self, small_mdd):
        region = MInterval.of((20, 70), (25, 40))
        direct = small_mdd.source.region(region, small_mdd.cell_type)
        assert np.array_equal(small_mdd.read(region), direct)

    def test_read_outside_domain_rejected(self, small_mdd):
        with pytest.raises(DomainError):
            small_mdd.read(MInterval.of((0, 200), (0, 10)))

    def test_write_then_read(self, small_mdd):
        region = MInterval.of((30, 33), (60, 63))
        patch = np.full((4, 4), -1.0)
        small_mdd.write(region, patch)
        assert np.array_equal(small_mdd.read(region), patch)

    def test_write_preserves_neighbours(self, small_mdd):
        neighbour = MInterval.of((0, 9), (0, 9))
        before = small_mdd.read(neighbour).copy()
        small_mdd.write(MInterval.of((40, 49), (40, 49)), np.zeros((10, 10)))
        assert np.array_equal(small_mdd.read(neighbour), before)

    def test_write_wrong_shape_rejected(self, small_mdd):
        with pytest.raises(DomainError):
            small_mdd.write(MInterval.of((0, 3), (0, 3)), np.zeros((2, 2)))

    def test_tiles_for_region(self, small_mdd):
        tiles = small_mdd.tiles_for(MInterval.of((0, 40), (0, 40)))
        assert len(tiles) == 4

    def test_size_bytes(self, small_mdd):
        assert small_mdd.size_bytes == 96 * 96 * 8

    def test_validate_passes(self, small_mdd):
        assert_exact_cover(small_mdd.domain, [t.domain for t in small_mdd.tiles.values()])

    def test_from_array_roundtrip(self):
        cells = np.arange(24, dtype=np.float64).reshape(4, 6)
        mdd = MDD.from_array("arr", cells, origin=[10, 20])
        assert mdd.domain == MInterval.of((10, 13), (20, 25))
        assert np.array_equal(mdd.read_all(), cells)

    def test_drop_payloads_and_rematerialize(self, small_mdd):
        before = small_mdd.read_all().copy()
        small_mdd.materialize_all()
        small_mdd.drop_payloads()
        assert np.array_equal(small_mdd.read_all(), before)

    def test_resolver_takes_priority_over_source(self, small_mdd):
        small_mdd.resolver = lambda mdd, tile: np.full(
            tile.domain.shape, 42.0, dtype=np.float64
        )
        assert (small_mdd.read(MInterval.of((0, 5), (0, 5))) == 42.0).all()

    def test_no_payload_resolver_or_source_raises(self):
        mdd = MDD("bare", MInterval.of((0, 7), (0, 7)))
        mdd.source = None
        with pytest.raises(DomainError):
            mdd.read_all()

    def test_default_tiling_applied(self):
        mdd = MDD("d", MInterval.of((0, 199), (0, 199)))
        assert mdd.tile_count() > 1


class TestTileSerialisation:
    def test_to_from_bytes_roundtrip(self, small_mdd):
        tile = small_mdd.tiles[0]
        tile.set_payload(small_mdd.materialize_tile(tile))
        raw = tile.to_bytes()
        tile.drop_payload()
        tile.from_bytes(raw)
        assert np.array_equal(tile.payload, small_mdd.source.region(tile.domain, DOUBLE))

    def test_from_bytes_wrong_length_rejected(self, small_mdd):
        tile = small_mdd.tiles[0]
        with pytest.raises(DomainError):
            tile.from_bytes(b"short")

    def test_payload_shape_enforced(self, small_mdd):
        tile = small_mdd.tiles[0]
        with pytest.raises(DomainError):
            tile.set_payload(np.zeros((2, 2)))


class TestCollection:
    def test_add_get_remove(self, small_mdd):
        coll = Collection("c")
        coll.add(small_mdd)
        assert coll.get("small") is small_mdd
        assert "small" in coll
        coll.remove("small")
        assert len(coll) == 0

    def test_duplicate_name_rejected(self, small_mdd):
        coll = Collection("c")
        coll.add(small_mdd)
        with pytest.raises(Exception):
            coll.add(small_mdd)

    def test_objects_sorted_by_name(self):
        coll = Collection("c")
        coll.add(MDD("zz", MInterval.of((0, 1))))
        coll.add(MDD("aa", MInterval.of((0, 1))))
        assert coll.names() == ["aa", "zz"]
