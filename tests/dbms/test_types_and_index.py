"""Tests for column types and the ordered index."""

import pytest

from repro.dbms import ColumnType, OrderedIndex, coerce
from repro.errors import SchemaError


class TestCoerce:
    def test_exact_types_pass(self):
        assert coerce(5, ColumnType.INTEGER, "c") == 5
        assert coerce("x", ColumnType.TEXT, "c") == "x"
        assert coerce(b"x", ColumnType.BYTES, "c") == b"x"
        assert coerce(True, ColumnType.BOOLEAN, "c") is True

    def test_none_passes_through(self):
        assert coerce(None, ColumnType.INTEGER, "c") is None

    def test_int_widens_to_real(self):
        value = coerce(5, ColumnType.REAL, "c")
        assert value == 5.0 and isinstance(value, float)

    def test_bool_rejected_for_integer(self):
        with pytest.raises(SchemaError):
            coerce(True, ColumnType.INTEGER, "c")

    def test_string_not_coerced_to_number(self):
        with pytest.raises(SchemaError):
            coerce("5", ColumnType.INTEGER, "c")

    def test_float_rejected_for_integer(self):
        with pytest.raises(SchemaError):
            coerce(5.0, ColumnType.INTEGER, "c")


class TestOrderedIndex:
    def test_lookup_exact(self):
        index = OrderedIndex("i")
        index.insert(5, 1)
        index.insert(3, 2)
        index.insert(5, 3)
        assert sorted(index.lookup(5)) == [1, 3]
        assert index.lookup(4) == []

    def test_unique_rejects_duplicates(self):
        index = OrderedIndex("i", unique=True)
        index.insert(1, 10)
        with pytest.raises(KeyError):
            index.insert(1, 11)

    def test_remove_specific_entry(self):
        index = OrderedIndex("i")
        index.insert(1, 10)
        index.insert(1, 11)
        index.remove(1, 10)
        assert index.lookup(1) == [11]

    def test_remove_missing_raises(self):
        index = OrderedIndex("i")
        index.insert(1, 10)
        with pytest.raises(KeyError):
            index.remove(1, 99)
