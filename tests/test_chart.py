"""Tests for the ASCII chart helpers."""

import pytest

from repro.bench import bar_chart, sparkline


class TestBarChart:
    def test_longest_bar_for_peak(self):
        chart = bar_chart("T", ["a", "b"], [10.0, 5.0], width=10)
        lines = chart.splitlines()
        assert lines[2].count("#") == 10
        assert lines[3].count("#") == 5

    def test_zero_value_no_bar(self):
        chart = bar_chart("T", ["a", "b"], [0.0, 1.0], width=10)
        assert chart.splitlines()[2].count("#") == 0

    def test_labels_aligned(self):
        chart = bar_chart("T", ["x", "longer"], [1, 2])
        lines = chart.splitlines()
        assert lines[2].index("|") == lines[3].index("|")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bar_chart("T", ["a"], [1, 2])

    def test_empty(self):
        assert bar_chart("T", [], []) == "T"


class TestSparkline:
    def test_monotone_levels(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert len(line) == 8
        assert line[0] == " " and line[-1] == "#"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "==="

    def test_u_shape_visible(self):
        line = sparkline([9, 3, 1, 3, 9])
        assert line[0] == line[-1]
        assert line[2] == " "

    def test_empty(self):
        assert sparkline([]) == ""
