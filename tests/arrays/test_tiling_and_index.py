"""Tests for the regular tiling and its grid index."""

import pytest

from repro.arrays import GridIndex, MInterval, RegularTiling
from repro.errors import TilingError
from tests.conftest import assert_exact_cover

DOMAIN = MInterval.of((0, 99), (0, 59))


class TestRegularTiling:
    def test_exact_cover(self):
        tiles = RegularTiling((25, 20)).tile_domains(DOMAIN)
        assert_exact_cover(DOMAIN, tiles)
        assert len(tiles) == 4 * 3

    def test_border_clipping(self):
        tiles = RegularTiling((30, 40)).tile_domains(DOMAIN)
        assert_exact_cover(DOMAIN, tiles)
        assert tiles[-1].shape == (10, 20)

    def test_dimension_mismatch(self):
        with pytest.raises(TilingError):
            RegularTiling((10,)).tile_domains(DOMAIN)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(TilingError):
            RegularTiling((0, 10)).tile_domains(DOMAIN)

    def test_describe(self):
        assert RegularTiling((10, 20)).describe() == "regular(10, 20)"


class TestValidateTiling:
    """The exact-cover helper the tiling tests assert with catches each
    way a tile set can fail to cover a domain."""

    def test_gap_detected(self):
        with pytest.raises(AssertionError):
            assert_exact_cover(DOMAIN, [MInterval.of((0, 49), (0, 59))])

    def test_overlap_detected(self):
        with pytest.raises(AssertionError):
            assert_exact_cover(
                MInterval.of((0, 9)),
                [MInterval.of((0, 5)), MInterval.of((5, 9))],
            )

    def test_leak_detected(self):
        with pytest.raises(AssertionError):
            assert_exact_cover(MInterval.of((0, 9)), [MInterval.of((0, 10))])


class TestGridIndex:
    @pytest.fixture
    def index(self):
        return GridIndex(DOMAIN, (25, 20))

    def test_is_grid_index(self, index):
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
