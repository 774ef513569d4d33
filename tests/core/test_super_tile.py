"""Tests for the Super-Tile concept and the STAR algorithm."""

import pytest

from repro.arrays import DOUBLE, MDD, MInterval, RegularTiling
from repro.core import (
    SuperTile,
    grid_block_shape,
    star_partition,
    tiles_to_super_tiles,
)
from repro.errors import HeavenError

KB = 1024


def grid_object(shape=(128, 128), tile=(32, 32)):
    """16 tiles of 8 KB each (32*32*8 B)."""
    return MDD("g", MInterval.from_shape(shape), DOUBLE, tiling=RegularTiling(tile))


class TestGridBlockShape:
    def test_fills_fastest_axis_first(self):
        shape = grid_block_shape([4, 4], 8, axis_order=[1, 0])
        assert shape == [2, 4]

    def test_caps_at_grid_counts(self):
        shape = grid_block_shape([2, 3], 100, axis_order=[1, 0])
        assert shape == [2, 3]

    def test_single_tile_blocks(self):
        assert grid_block_shape([4, 4], 1, axis_order=[1, 0]) == [1, 1]

    def test_custom_axis_order(self):
        shape = grid_block_shape([4, 4], 4, axis_order=[0, 1])
        assert shape == [4, 1]

    def test_non_permutation_rejected(self):
        with pytest.raises(HeavenError):
            grid_block_shape([4, 4], 4, axis_order=[0, 0])


class TestStarPartition:
    def test_partition_covers_all_tiles_once(self):
        mdd = grid_object()
        super_tiles = star_partition(mdd, 32 * KB)  # 4 tiles per super-tile
        assert sum(st.tile_count for st in super_tiles) == 16
        assert len({t for st in super_tiles for t in st.tile_ids}) == 16

    def test_target_size_respected(self):
        mdd = grid_object()
        super_tiles = star_partition(mdd, 32 * KB)
        assert len(super_tiles) == 4
        for st in super_tiles:
            assert st.size_bytes == 32 * KB

    def test_members_are_spatially_contiguous(self):
        mdd = grid_object()
        super_tiles = star_partition(mdd, 32 * KB)
        for st in super_tiles:
            hull_cells = st.domain.cell_count
            member_cells = sum(mdd.tiles[t].domain.cell_count for t in st.tile_ids)
            assert hull_cells == member_cells  # hull has no holes

    def test_one_tile_target_gives_tile_per_super_tile(self):
        mdd = grid_object()
        super_tiles = star_partition(mdd, 8 * KB)
        assert len(super_tiles) == 16

    def test_huge_target_gives_single_super_tile(self):
        mdd = grid_object()
        super_tiles = star_partition(mdd, 10**9)
        assert len(super_tiles) == 1
        assert super_tiles[0].domain == mdd.domain

    def test_nonpositive_target_rejected(self):
        with pytest.raises(HeavenError):
            star_partition(grid_object(), 0)

    def test_axis_order_changes_block_orientation(self):
        mdd = grid_object()
        default = star_partition(mdd, 32 * KB)  # fills axis 1 first
        transposed = star_partition(mdd, 32 * KB, axis_order=[0, 1])
        assert default[0].domain.shape == (32, 128)
        assert transposed[0].domain.shape == (128, 32)

    def test_3d_partition(self):
        mdd = MDD(
            "cube",
            MInterval.from_shape((64, 64, 64)),
            DOUBLE,
            tiling=RegularTiling((32, 32, 32)),
        )
        super_tiles = star_partition(mdd, 4 * 32 * 32 * 32 * 8)
        assert len(super_tiles) == 2
        assert all(st.tile_count == 4 for st in super_tiles)


class TestSuperTileExtents:
    def test_assign_extents_back_to_back(self):
        mdd = grid_object()
        st = star_partition(mdd, 32 * KB)[0]
        st.assign_extents({t: mdd.tiles[t].size_bytes for t in st.tile_ids})
        offsets = [st.tile_extents[t][0] for t in st.tile_ids]
        assert offsets == [0, 8 * KB, 16 * KB, 24 * KB]

    def test_extents_must_sum_to_size(self):
        mdd = grid_object()
        st = star_partition(mdd, 32 * KB)[0]
        with pytest.raises(HeavenError):
            st.assign_extents({t: 1 for t in st.tile_ids})

    def test_run_covering(self):
        mdd = grid_object()
        st = star_partition(mdd, 32 * KB)[0]
        st.assign_extents({t: mdd.tiles[t].size_bytes for t in st.tile_ids})
        second, third = st.tile_ids[1], st.tile_ids[2]
        start, length = st.run_covering([second, third])
        assert start == 8 * KB and length == 16 * KB

    def test_run_covering_needs_tiles(self):
        st = SuperTile(0, "x", [0], MInterval.of((0, 1)), 16)
        st.assign_extents({0: 16})
        with pytest.raises(HeavenError):
            st.run_covering([])

    def test_tiles_to_super_tiles_map(self):
        mdd = grid_object()
        super_tiles = star_partition(mdd, 32 * KB)
        mapping = tiles_to_super_tiles(super_tiles)
        assert set(mapping) == set(mdd.tiles)
        for st in super_tiles:
            for tile_id in st.tile_ids:
                assert mapping[tile_id] is st
