"""Tests for the array storage manager (BLOB persistence + catalogs)."""

import numpy as np
import pytest

from repro.arrays import (
    ArrayStorage,
    DOUBLE,
    HashedNoiseSource,
    MDD,
    MInterval,
    RegularTiling,
)
from repro.arrays.storage import OBJECTS_TABLE
from repro.dbms import Database
from repro.errors import ArrayError


@pytest.fixture
def storage():
    return ArrayStorage(Database())


def make_object(name="obj", seed=1):
    return MDD(
        name,
        MInterval.of((0, 39), (0, 39)),
        DOUBLE,
        tiling=RegularTiling((20, 20)),
        source=HashedNoiseSource(seed),
    )


class TestCollections:
    def test_create_and_list(self, storage):
        storage.create_collection("a")
        storage.create_collection("b")
        assert storage.collection_names() == ["a", "b"]

    def test_unknown_collection_raises(self, storage):
        with pytest.raises(ArrayError):
            storage.collection("ghost")

    def test_drop_collection_removes_objects(self, storage):
        storage.create_collection("c")
        mdd = make_object()
        storage.insert_object("c", mdd)
        storage.drop_collection("c")
        assert "c" not in storage.collection_names()
        with pytest.raises(ArrayError):
            storage.collection("c")


class TestInsertObject:
    def test_assigns_oid_and_resolver(self, storage):
        storage.create_collection("c")
        mdd = make_object()
        oid = storage.insert_object("c", mdd)
        assert mdd.oid == oid
        assert mdd.resolver is not None

    def test_blob_roundtrip_preserves_cells(self, storage):
        storage.create_collection("c")
        mdd = make_object()
        before = mdd.read_all().copy()
        storage.insert_object("c", mdd)
        mdd.drop_payloads()
        mdd.source = None  # force reads through the BLOB store
        assert np.array_equal(mdd.read_all(), before)

    def test_catalog_rows_written(self, storage):
        storage.create_collection("c")
        mdd = make_object()
        oid = storage.insert_object("c", mdd)
        assert storage.object_row(oid)["name"] == "obj"
        assert len(storage.tile_rows(oid)) == mdd.tile_count()

    def test_blob_io_charges_disk_time(self, storage):
        storage.create_collection("c")
        before = storage.db.clock.now
        storage.insert_object("c", make_object())
        assert storage.db.clock.now > before

    def test_size_only_mode_falls_back_to_source(self):
        storage = ArrayStorage(Database(), retain_payload=False)
        storage.create_collection("c")
        mdd = make_object()
        expected = mdd.source.region(mdd.domain, mdd.cell_type)
        storage.insert_object("c", mdd)
        mdd.drop_payloads()
        assert np.array_equal(mdd.read_all(), expected)


class TestDeleteObject:
    def test_delete_removes_everything(self, storage):
        storage.create_collection("c")
        mdd = make_object()
        oid = storage.insert_object("c", mdd)
        blob_count = len(storage.db.blobs)
        storage.delete_object("c", "obj")
        assert len(storage.db.blobs) == blob_count - mdd.tile_count()
        with pytest.raises(ArrayError):
            storage.object_row(oid)
        assert mdd.oid is None

    def test_delete_unpersisted_rejected(self, storage):
        storage.create_collection("c")
        coll = storage.collection("c")
        coll.add(make_object())
        with pytest.raises(ArrayError):
            storage.delete_object("c", "obj")


class TestRebuild:
    def test_collection_reload_from_catalog(self, storage):
        storage.create_collection("c")
        objects = [
            make_object(),
            # describe() is "regular(7,)": a one-element tuple's comma
            MDD("line", MInterval.of((3, 40)), DOUBLE,
                tiling=RegularTiling((7,)), source=HashedNoiseSource(2)),
            # no extent divides its axis: clipped edge tiles on every axis
            MDD("cube", MInterval.of((0, 10), (-4, 8), (5, 14)), DOUBLE,
                tiling=RegularTiling((4, 5, 3)), source=HashedNoiseSource(3)),
        ]
        before = [mdd.read_all().copy() for mdd in objects]
        for mdd in objects:
            storage.insert_object("c", mdd)
        # Simulate a fresh session: drop the in-memory collection cache.
        storage._collections.clear()
        for mdd, cells in zip(objects, before):
            reloaded = storage.collection("c").get(mdd.name)
            assert reloaded is not mdd
            assert reloaded.domain == mdd.domain
            assert {i: t.domain for i, t in reloaded.tiles.items()} == {
                i: t.domain for i, t in mdd.tiles.items()
            }
            assert np.array_equal(reloaded.read_all(), cells)

    def test_non_regular_catalog_tiling_rejected(self, storage):
        # The default tiling: a rebuild that fell back to it would match
        # the stored tile rows and load silently.
        mdd = MDD("obj", MInterval.of((0, 39), (0, 39)), DOUBLE)
        storage.create_collection("c")
        oid = storage.insert_object("c", mdd)
        rowid, _row = storage.db.table(OBJECTS_TABLE).find_pk(oid)
        storage.db.update(OBJECTS_TABLE, rowid, {"tiling": "size(8192B)"})
        storage._collections.clear()
        with pytest.raises(ArrayError):
            storage.collection("c")

    def test_blob_oid_lookup(self, storage):
        storage.create_collection("c")
        mdd = make_object()
        oid = storage.insert_object("c", mdd)
        blob_oid = storage.blob_oid_of(oid, 0)
        assert storage.db.blobs.size(blob_oid) == mdd.tiles[0].size_bytes
        with pytest.raises(ArrayError):
            storage.blob_oid_of(oid, 999)
