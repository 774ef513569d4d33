"""Tests for the engine: transactions, WAL, BLOBs."""

import pytest

from repro.dbms import Column, ColumnType, Database, LogKind
from repro.errors import (
    BlobNotFoundError,
    SchemaError,
    TransactionError,
)


def rows(db, table_name):
    return [row for _rid, row in db.table(table_name).scan()]


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        "t",
        [
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("name", ColumnType.TEXT),
        ],
        primary_key="id",
    )
    return database


class TestDDL:
    def test_create_and_drop(self, db):
        db.create_table("u", [Column("a", ColumnType.INTEGER)])
        assert "u" in db.tables()
        db.drop_table("u")
        assert "u" not in db.tables()

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_table("t", [Column("a", ColumnType.INTEGER)])

    def test_unknown_table_raises(self, db):
        with pytest.raises(SchemaError):
            db.table("ghost")


class TestTransactions:
    def test_commit_persists(self, db):
        with db.transaction():
            db.insert("t", {"id": 1, "name": "a"})
        assert rows(db, "t") == [{"id": 1, "name": "a"}]

    def test_rollback_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("t", {"id": 1})
                raise RuntimeError("boom")
        assert rows(db, "t") == []

    def test_rollback_restores_updates_and_deletes(self, db):
        db.insert("t", {"id": 1, "name": "a"})
        db.insert("t", {"id": 2, "name": "b"})
        db.begin()
        rid = db.table("t").find_pk(1)[0]
        db.update("t", rid, {"name": "z"})
        db.delete_rows("t", lambda r: r["id"] == 2)
        db.rollback()
        assert sorted(rows(db, "t"), key=lambda r: r["id"]) == [
            {"id": 1, "name": "a"}, {"id": 2, "name": "b"}]

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_commit_without_txn_rejected(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_autocommit_outside_txn(self, db):
        db.insert("t", {"id": 5})
        assert not db.in_transaction
        assert len(rows(db, "t")) == 1

    def test_wal_records_lifecycle(self, db):
        with db.transaction():
            db.insert("t", {"id": 1})
        kinds = [r.kind for r in db.wal.records()]
        assert kinds == [LogKind.BEGIN, LogKind.INSERT, LogKind.COMMIT]
        assert db.wal.committed_txns()

    def test_wal_abort_record_on_rollback(self, db):
        db.begin()
        db.insert("t", {"id": 1})
        db.rollback()
        kinds = [r.kind for r in db.wal.records()]
        assert LogKind.ABORT in kinds


class TestBlobs:
    def test_put_get_roundtrip(self, db):
        oid = db.put_blob(b"payload")
        assert db.blobs.get(oid) == b"payload"
        assert db.blobs.size(oid) == 7

    def test_size_only_blob(self, db):
        oid = db.put_blob(size=1000)
        assert db.blobs.size(oid) == 1000
        assert db.blobs.get(oid) is None

    def test_missing_blob_raises(self, db):
        with pytest.raises(BlobNotFoundError):
            db.blobs.get(999)

    def test_blob_rollback_removes(self, db):
        db.begin()
        oid = db.put_blob(b"x")
        db.rollback()
        with pytest.raises(BlobNotFoundError):
            db.blobs.get(oid)

    def test_blob_delete_rollback_restores(self, db):
        oid = db.put_blob(b"x")
        db.begin()
        db.delete_blob(oid)
        db.rollback()
        assert db.blobs.get(oid) == b"x"

    def test_blob_io_charges_clock(self, db):
        before = db.clock.now
        db.put_blob(b"z" * 1024)
        assert db.clock.now > before

    def test_put_needs_payload_or_size(self, db):
        with pytest.raises(ValueError):
            db.put_blob()
