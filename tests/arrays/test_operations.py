"""Tests for array operations: trim, shift, induced, condense, scale."""

import numpy as np
import pytest

from repro.arrays import (
    MArray,
    MInterval,
    condense,
    induced_binary,
    induced_unary,
    scale_down,
    shift,
    trim,
    cast,
)
from repro.errors import DomainError, QueryError


@pytest.fixture
def grid() -> MArray:
    cells = np.arange(24, dtype=np.float64).reshape(4, 6)
    return MArray(MInterval.of((10, 13), (20, 25)), cells)


class TestMArray:
    def test_shape_must_match_domain(self):
        with pytest.raises(DomainError):
            MArray(MInterval.of((0, 3)), np.zeros((5,)))

    def test_scalar_of_single_cell(self):
        value = MArray(MInterval.of(0), np.array([7.0]))
        assert value.scalar() == 7.0

    def test_scalar_of_multicell_rejected(self, grid):
        with pytest.raises(QueryError):
            grid.scalar()


class TestTrimSectionShiftExtend:
    def test_trim_absolute_coords(self, grid):
        part = trim(grid, MInterval.of((11, 12), (21, 22)))
        assert part.domain == MInterval.of((11, 12), (21, 22))
        assert np.array_equal(part.cells, grid.cells[1:3, 1:3])

    def test_trim_disjoint_rejected(self, grid):
        with pytest.raises(DomainError):
            trim(grid, MInterval.of((50, 60), (20, 25)))

    def test_shift(self, grid):
        moved = shift(grid, [-10, -20])
        assert moved.domain == MInterval.of((0, 3), (0, 5))
        assert np.array_equal(moved.cells, grid.cells)


class TestInduced:
    def test_array_scalar(self, grid):
        out = induced_binary("+", grid, 10.0)
        assert np.array_equal(out.cells, grid.cells + 10)

    def test_scalar_array(self, grid):
        out = induced_binary("-", 100.0, grid)
        assert np.array_equal(out.cells, 100 - grid.cells)

    def test_array_array_same_domain(self, grid):
        out = induced_binary("*", grid, grid)
        assert np.array_equal(out.cells, grid.cells**2)

    def test_domain_mismatch_rejected(self, grid):
        other = MArray(MInterval.of((0, 3), (0, 5)), grid.cells)
        with pytest.raises(DomainError):
            induced_binary("+", grid, other)

    def test_comparison_yields_bool(self, grid):
        out = induced_binary(">", grid, 11.0)
        assert out.cells.dtype == np.bool_

    def test_scalar_scalar(self):
        assert induced_binary("+", 2, 3) == 5
        assert induced_binary("<", 2, 3) is True

    def test_unknown_op_rejected(self, grid):
        with pytest.raises(QueryError):
            induced_binary("**", grid, grid)

    def test_unary_negate_and_abs(self, grid):
        assert np.array_equal(induced_unary("-", grid).cells, -grid.cells)
        assert np.array_equal(induced_unary("abs", induced_unary("-", grid)).cells, grid.cells)

    def test_unary_scalar(self):
        assert induced_unary("-", 5) == -5

    def test_cast(self, grid):
        out = cast(grid, "long")
        assert out.cells.dtype == np.int32
        assert cast(2.9, "long") == 2


class TestCondensers:
    def test_basic_condensers(self, grid):
        assert condense("add_cells", grid) == grid.cells.sum()
        assert condense("avg_cells", grid) == pytest.approx(grid.cells.mean())
        assert condense("max_cells", grid) == 23.0
        assert condense("min_cells", grid) == 0.0

    def test_count_cells_on_bool(self, grid):
        mask = induced_binary(">=", grid, 12.0)
        assert condense("count_cells", mask) == 12

    def test_count_cells_requires_bool(self, grid):
        with pytest.raises(QueryError):
            condense("count_cells", grid)

    def test_some_all(self, grid):
        mask = induced_binary(">", grid, -1.0)
        assert condense("all_cells", mask) is True
        mask2 = induced_binary(">", grid, 100.0)
        assert condense("some_cells", mask2) is False

    def test_var_stddev(self, grid):
        assert condense("var_cells", grid) == pytest.approx(grid.cells.var())
        assert condense("stddev_cells", grid) == pytest.approx(grid.cells.std())

    def test_unknown_condenser_rejected(self, grid):
        with pytest.raises(QueryError):
            condense("median_cells", grid)


class TestScaleAndAggregate:
    def test_scale_down_block_average(self):
        cells = np.arange(16, dtype=np.float64).reshape(4, 4)
        value = MArray(MInterval.of((0, 3), (0, 3)), cells)
        out = scale_down(value, [2, 2])
        assert out.domain == MInterval.of((0, 1), (0, 1))
        assert out.cells[0, 0] == pytest.approx(cells[:2, :2].mean())

    def test_scale_down_drops_partial_blocks(self):
        value = MArray(MInterval.of((0, 4)), np.arange(5, dtype=np.float64))
        out = scale_down(value, [2])
        assert out.domain.shape == (2,)

    def test_scale_factor_one_is_identity(self):
        value = MArray(MInterval.of((0, 3)), np.arange(4, dtype=np.float64))
        out = scale_down(value, [1])
        assert np.array_equal(out.cells, value.cells)

    def test_scale_too_small_axis_rejected(self):
        value = MArray(MInterval.of((0, 1)), np.arange(2, dtype=np.float64))
        with pytest.raises(DomainError):
            scale_down(value, [3])
