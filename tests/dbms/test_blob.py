"""Dedicated BLOB-store tests (peek, restore, capacity accounting)."""

import pytest

from repro.dbms import BlobStore
from repro.errors import BlobNotFoundError
from repro.tertiary import SimClock


@pytest.fixture
def store():
    return BlobStore(SimClock())


class TestBlobStore:
    def test_put_assigns_increasing_oids(self, store):
        a = store.put(b"a")
        b = store.put(b"bb")
        assert b > a
        assert len(store) == 2
        assert store.total_bytes == 3

    def test_peek_does_not_charge_io(self, store):
        oid = store.put(b"data")
        before = store.disk.clock.now
        assert store.peek(oid) == b"data"
        assert store.disk.clock.now == before

    def test_get_charges_io(self, store):
        oid = store.put(b"data")
        before = store.disk.clock.now
        store.get(oid)
        assert store.disk.clock.now > before

    def test_delete_releases_capacity(self, store):
        oid = store.put(b"x" * 100)
        used = store.disk.used_bytes
        assert store.delete(oid) == 100
        assert store.disk.used_bytes == used - 100
        assert oid not in store

    def test_restore_brings_blob_back(self, store):
        oid = store.put(b"payload")
        store.delete(oid)
        store.restore(oid, 7, b"payload")
        assert store.peek(oid) == b"payload"
        assert store.size(oid) == 7

    def test_restore_existing_oid_rejected(self, store):
        oid = store.put(b"x")
        with pytest.raises(ValueError):
            store.restore(oid, 1, b"x")

    def test_size_only_blob_has_no_payload(self, store):
        oid = store.put(size=7)
        assert store.peek(oid) is None
        assert store.get(oid) is None
        assert store.size(oid) == 7

    def test_unknown_oid_operations_raise(self, store):
        for operation in (store.get, store.size, store.delete, store.peek):
            with pytest.raises(BlobNotFoundError):
                operation(404)
