"""Tests for tiling strategies and tile indexes."""

import numpy as np
import pytest

from repro.arrays import (
    AlignedTiling,
    DOUBLE,
    CHAR,
    DirectionalTiling,
    GridIndex,
    MInterval,
    RTreeIndex,
    RegularTiling,
    SizeBoundedTiling,
    build_index,
    validate_tiling,
)
from repro.errors import DomainError, TilingError

DOMAIN = MInterval.of((0, 99), (0, 59))


class TestRegularTiling:
    def test_exact_cover(self):
        tiles = RegularTiling((25, 20)).tile_domains(DOMAIN, DOUBLE)
        validate_tiling(DOMAIN, tiles)
        assert len(tiles) == 4 * 3

    def test_border_clipping(self):
        tiles = RegularTiling((30, 40)).tile_domains(DOMAIN, DOUBLE)
        validate_tiling(DOMAIN, tiles)
        assert tiles[-1].shape == (10, 20)

    def test_dimension_mismatch(self):
        with pytest.raises(TilingError):
            RegularTiling((10,)).tile_domains(DOMAIN, DOUBLE)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(TilingError):
            RegularTiling((0, 10)).tile_domains(DOMAIN, DOUBLE)

    def test_describe(self):
        assert RegularTiling((10, 20)).describe() == "regular(10, 20)"


class TestSizeBoundedTiling:
    def test_tiles_respect_budget(self):
        tiles = SizeBoundedTiling(8 * 1024).tile_domains(DOMAIN, DOUBLE)
        validate_tiling(DOMAIN, tiles)
        for tile in tiles:
            assert tile.cell_count * DOUBLE.size_bytes <= 8 * 1024

    def test_near_cubic_tiles(self):
        tiles = SizeBoundedTiling(8 * 1024).tile_domains(DOMAIN, DOUBLE)
        interior = tiles[0]
        ratio = interior.shape[0] / interior.shape[1]
        assert 0.5 <= ratio <= 2.0

    def test_budget_below_cell_rejected(self):
        with pytest.raises(TilingError):
            SizeBoundedTiling(4).tile_domains(DOMAIN, DOUBLE)


class TestDirectionalTiling:
    def test_splits_at_points(self):
        tiling = DirectionalTiling([[50], []])
        tiles = tiling.tile_domains(DOMAIN, DOUBLE)
        validate_tiling(DOMAIN, tiles)
        assert len(tiles) == 2
        assert tiles[0] == MInterval.of((0, 49), (0, 59))

    def test_unsplit_axis_stays_whole(self):
        tiles = DirectionalTiling([[25, 50, 75], []]).tile_domains(DOMAIN, DOUBLE)
        assert all(t[1].extent == 60 for t in tiles)

    def test_out_of_range_split_rejected(self):
        with pytest.raises(TilingError):
            DirectionalTiling([[150], []]).tile_domains(DOMAIN, DOUBLE)

    def test_wrong_arity_rejected(self):
        with pytest.raises(TilingError):
            DirectionalTiling([[50]]).tile_domains(DOMAIN, DOUBLE)


class TestAlignedTiling:
    def test_preferred_axis_spans_domain(self):
        tiles = AlignedTiling(max_tile_bytes=16 * 1024, preferred_axes=[1]).tile_domains(
            DOMAIN, DOUBLE
        )
        validate_tiling(DOMAIN, tiles)
        assert all(t[1].extent == 60 for t in tiles)

    def test_bad_axis_rejected(self):
        with pytest.raises(TilingError):
            AlignedTiling(1024, preferred_axes=[9]).tile_domains(DOMAIN, DOUBLE)


class TestValidateTiling:
    def test_gap_detected(self):
        with pytest.raises(TilingError):
            validate_tiling(DOMAIN, [MInterval.of((0, 49), (0, 59))])

    def test_overlap_detected(self):
        with pytest.raises(TilingError):
            validate_tiling(
                MInterval.of((0, 9)),
                [MInterval.of((0, 5)), MInterval.of((5, 9))],
            )

    def test_leak_detected(self):
        with pytest.raises(TilingError):
            validate_tiling(MInterval.of((0, 9)), [MInterval.of((0, 10))])


class TestGridIndex:
    @pytest.fixture
    def index(self):
        tiles = RegularTiling((25, 20)).tile_domains(DOMAIN, DOUBLE)
        return build_index(DOMAIN, tiles, tile_shape=(25, 20))

    def test_is_grid_index(self, index):
        assert isinstance(index, GridIndex)
        assert index.grid_counts == (4, 3)

    def test_point_region(self, index):
        assert index.intersecting(MInterval.of(30, 25)) == [4]

    def test_region_spanning_multiple_tiles(self, index):
        ids = index.intersecting(MInterval.of((20, 30), (15, 25)))
        assert ids == [0, 1, 3, 4]

    def test_whole_domain(self, index):
        assert index.intersecting(DOMAIN) == list(range(12))

    def test_disjoint_region_empty(self, index):
        assert index.intersecting(MInterval.of((200, 210), (0, 5))) == []

    def test_domain_of_unknown_tile(self, index):
        with pytest.raises(DomainError):
            index.domain_of(99)

    def test_insert_wrong_slot_rejected(self):
        grid = GridIndex(DOMAIN, (25, 20))
        with pytest.raises(TilingError):
            grid.insert(0, MInterval.of((0, 10), (0, 10)))


class TestRTreeIndex:
    def test_matches_bruteforce_on_regular_tiles(self):
        tiles = RegularTiling((10, 10)).tile_domains(DOMAIN, DOUBLE)
        rtree = RTreeIndex(max_entries=4)
        for tile_id, tile in enumerate(tiles):
            rtree.insert(tile_id, tile)
        rng = np.random.default_rng(0)
        for _ in range(30):
            lo0, lo1 = int(rng.integers(0, 90)), int(rng.integers(0, 50))
            region = MInterval.of((lo0, lo0 + 15), (lo1, lo1 + 9))
            expect = sorted(
                i for i, t in enumerate(tiles) if t.intersects(region)
            )
            assert rtree.intersecting(region) == expect

    def test_handles_irregular_tiles(self):
        rtree = RTreeIndex(max_entries=4)
        boxes = [
            MInterval.of((0, 4), (0, 9)),
            MInterval.of((5, 9), (0, 4)),
            MInterval.of((5, 9), (5, 9)),
            MInterval.of((10, 30), (0, 9)),
        ]
        for i, box in enumerate(boxes):
            rtree.insert(i, box)
        assert rtree.intersecting(MInterval.of((4, 6), (4, 6))) == [0, 1, 2]

    def test_duplicate_insert_rejected(self):
        rtree = RTreeIndex()
        rtree.insert(0, MInterval.of((0, 1)))
        with pytest.raises(TilingError):
            rtree.insert(0, MInterval.of((2, 3)))

    def test_tree_grows_in_height(self):
        rtree = RTreeIndex(max_entries=4)
        for i in range(50):
            rtree.insert(i, MInterval.of((i * 2, i * 2 + 1)))
        assert not rtree._root.leaf  # the root split: height >= 2
        assert len(rtree.all_ids()) == 50

    def test_all_entries_findable_after_splits(self):
        rtree = RTreeIndex(max_entries=4)
        boxes = {}
        rng = np.random.default_rng(3)
        for i in range(120):
            lo0, lo1 = int(rng.integers(0, 500)), int(rng.integers(0, 500))
            box = MInterval.of((lo0, lo0 + 5), (lo1, lo1 + 5))
            boxes[i] = box
            rtree.insert(i, box)
        for i, box in boxes.items():
            assert i in rtree.intersecting(box)

    def test_small_max_entries_rejected(self):
        with pytest.raises(ValueError):
            RTreeIndex(max_entries=2)
