"""Tests for schemas, tables, constraints and secondary indexes."""

import pytest

from repro.dbms import Column, ColumnType, Schema, Table
from repro.errors import ConstraintError, SchemaError


def make_table(primary_key="id"):
    return Table(
        "t",
        Schema(
            [
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("name", ColumnType.TEXT),
                Column("score", ColumnType.REAL),
            ],
            primary_key=primary_key,
        ),
    )


class TestSchema:
    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", ColumnType.INTEGER), Column("a", ColumnType.TEXT)])

    def test_pk_must_be_column(self):
        with pytest.raises(SchemaError):
            Schema([Column("a", ColumnType.INTEGER)], primary_key="b")

    def test_validate_fills_missing_with_none(self):
        schema = Schema([Column("a", ColumnType.INTEGER), Column("b", ColumnType.TEXT)])
        assert schema.validate({"a": 1}) == {"a": 1, "b": None}

    def test_validate_rejects_unknown_column(self):
        schema = Schema([Column("a", ColumnType.INTEGER)])
        with pytest.raises(SchemaError):
            schema.validate({"zz": 1})

    def test_not_null_enforced(self):
        schema = Schema([Column("a", ColumnType.INTEGER, nullable=False)])
        with pytest.raises(ConstraintError):
            schema.validate({"a": None})


class TestTableCRUD:
    def test_insert_and_get(self):
        table = make_table()
        rowid = table.insert({"id": 1, "name": "a", "score": 2.5})
        assert table.get(rowid)["name"] == "a"
        assert len(table) == 1

    def test_pk_uniqueness(self):
        table = make_table()
        table.insert({"id": 1})
        with pytest.raises(ConstraintError):
            table.insert({"id": 1})

    def test_update_changes_and_returns_before(self):
        table = make_table()
        rowid = table.insert({"id": 1, "name": "a"})
        before = table.update(rowid, {"name": "b"})
        assert before["name"] == "a"
        assert table.get(rowid)["name"] == "b"

    def test_update_pk_to_existing_rejected(self):
        table = make_table()
        table.insert({"id": 1})
        rowid = table.insert({"id": 2})
        with pytest.raises(ConstraintError):
            table.update(rowid, {"id": 1})

    def test_delete_and_restore(self):
        table = make_table()
        rowid = table.insert({"id": 1, "name": "a"})
        row = table.delete(rowid)
        assert len(table) == 0
        table.restore(rowid, row)
        assert table.get(rowid)["name"] == "a"

    def test_restore_existing_rowid_rejected(self):
        table = make_table()
        rowid = table.insert({"id": 1})
        with pytest.raises(ConstraintError):
            table.restore(rowid, {"id": 9, "name": None, "score": None})

    def test_get_returns_copy(self):
        table = make_table()
        rowid = table.insert({"id": 1, "name": "a"})
        row = table.get(rowid)
        row["name"] = "mutated"
        assert table.get(rowid)["name"] == "a"


class TestTableLookups:
    def test_scan_with_predicate(self):
        table = make_table()
        for i in range(5):
            table.insert({"id": i, "score": float(i)})
        rows = [row for _rid, row in table.scan(lambda r: r["score"] >= 3)]
        assert {r["id"] for r in rows} == {3, 4}

    def test_find_by_indexed_column(self):
        table = make_table()
        table.create_index("name")
        table.insert({"id": 1, "name": "x"})
        table.insert({"id": 2, "name": "x"})
        table.insert({"id": 3, "name": "y"})
        assert len(table.find_by("name", "x")) == 2

    def test_find_by_unindexed_column_scans(self):
        table = make_table()
        table.insert({"id": 1, "name": "x"})
        assert len(table.find_by("name", "x")) == 1

    def test_find_pk(self):
        table = make_table()
        table.insert({"id": 7, "name": "seven"})
        found = table.find_pk(7)
        assert found is not None and found[1]["name"] == "seven"
        assert table.find_pk(8) is None

    def test_find_pk_without_pk_rejected(self):
        table = make_table(primary_key=None)
        with pytest.raises(SchemaError):
            table.find_pk(1)

    def test_index_backfill_on_create(self):
        table = make_table()
        table.insert({"id": 1, "name": "x"})
        index = table.create_index("name")
        assert index.lookup("x")

    def test_duplicate_index_rejected(self):
        table = make_table()
        table.create_index("name")
        with pytest.raises(SchemaError):
            table.create_index("name")

    def test_index_maintained_on_update_and_delete(self):
        table = make_table()
        index = table.create_index("name")
        rowid = table.insert({"id": 1, "name": "x"})
        table.update(rowid, {"name": "y"})
        assert index.lookup("x") == []
        assert index.lookup("y") == [rowid]
        table.delete(rowid)
        assert index.lookup("y") == []
