"""Array storage manager: persists MDDs into the base DBMS.

Reproduces RasDaMan's physical layer (Kapitel 2.5.3): each tile becomes one
BLOB in the base RDBMS, catalog tables record objects, collections and tile
locations.  Installed resolvers route later cell reads through the BLOB
store, charging realistic disk costs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..dbms import Column, ColumnType, Database
from ..errors import ArrayError, DomainError
from .celltype import lookup as lookup_cell_type
from .mdd import MDD, Collection
from .minterval import MInterval
from .tile import Tile
from .tiling import RegularTiling

COLLECTIONS_TABLE = "ras_collections"
OBJECTS_TABLE = "ras_mddobjects"
TILES_TABLE = "ras_tiles"


class ArrayStorage:
    """Catalog + BLOB persistence of arrays over a :class:`Database`.

    *retain_payload* off makes every tile BLOB size-only (reads regenerate
    cells from the object's source), so multi-GB virtual objects cost no
    host memory.  This is the one place that choice is made: the layers
    below store what they are handed, and None bytes mean sizes only.
    """

    def __init__(self, db: Database, retain_payload: bool = True) -> None:
        self.db = db
        self.retain_payload = retain_payload
        self._next_oid = 1
        self._ensure_catalog()
        #: cache of open collections (shared MDD instances)
        self._collections: Dict[str, Collection] = {}

    # -- catalog DDL ----------------------------------------------------------

    def _ensure_catalog(self) -> None:
        existing = set(self.db.tables())
        if COLLECTIONS_TABLE not in existing:
            self.db.create_table(
                COLLECTIONS_TABLE,
                [Column("name", ColumnType.TEXT, nullable=False)],
                primary_key="name",
            )
        if OBJECTS_TABLE not in existing:
            self.db.create_table(
                OBJECTS_TABLE,
                [
                    Column("oid", ColumnType.INTEGER, nullable=False),
                    Column("collection", ColumnType.TEXT, nullable=False),
                    Column("name", ColumnType.TEXT, nullable=False),
                    Column("domain", ColumnType.TEXT, nullable=False),
                    Column("cell_type", ColumnType.TEXT, nullable=False),
                    Column("tiling", ColumnType.TEXT, nullable=False),
                ],
                primary_key="oid",
            )
            self.db.table(OBJECTS_TABLE).create_index("name")
        if TILES_TABLE not in existing:
            self.db.create_table(
                TILES_TABLE,
                [
                    Column("key", ColumnType.TEXT, nullable=False),
                    Column("oid", ColumnType.INTEGER, nullable=False),
                    Column("tile_id", ColumnType.INTEGER, nullable=False),
                    Column("domain", ColumnType.TEXT, nullable=False),
                    Column("blob_oid", ColumnType.INTEGER, nullable=False),
                    Column("size", ColumnType.INTEGER, nullable=False),
                ],
                primary_key="key",
            )
            self.db.table(TILES_TABLE).create_index("oid")

    # -- collections ---------------------------------------------------------

    def create_collection(self, name: str) -> Collection:
        self.db.insert(COLLECTIONS_TABLE, {"name": name})
        collection = Collection(name)
        self._collections[name] = collection
        return collection

    def collection(self, name: str) -> Collection:
        if name in self._collections:
            return self._collections[name]
        if not self.db.table(COLLECTIONS_TABLE).find_by("name", name):
            raise ArrayError(f"collection {name!r} does not exist")
        collection = Collection(name)
        for row in self.db.table(OBJECTS_TABLE).scan(
            lambda r: r["collection"] == name
        ):
            collection.add(self._rebuild_mdd(row[1]))
        self._collections[name] = collection
        return collection

    def collection_names(self) -> List[str]:
        return sorted(row["name"] for _rid, row in self.db.table(COLLECTIONS_TABLE).scan())

    def drop_collection(self, name: str) -> None:
        collection = self.collection(name)
        for mdd in list(collection):
            self.delete_object(name, mdd.name)
        self.db.delete_rows(COLLECTIONS_TABLE, lambda r: r["name"] == name)
        del self._collections[name]

    # -- object persistence ------------------------------------------------------

    def insert_object(self, collection_name: str, mdd: MDD) -> int:
        """Persist *mdd* into a collection: catalog rows + one BLOB per tile.

        Tile payloads are materialised (from the object's source) and written
        through the BLOB store.  A size-only storage (``retain_payload=False``)
        writes size-only BLOBs, and later reads fall back to the object's
        deterministic source.  Returns the oid.
        """
        collection = self.collection(collection_name)
        oid = self._next_oid
        self._next_oid += 1
        with self.db.transaction():
            self.db.insert(
                OBJECTS_TABLE,
                {
                    "oid": oid,
                    "collection": collection_name,
                    "name": mdd.name,
                    "domain": str(mdd.domain),
                    "cell_type": mdd.cell_type.name,
                    "tiling": mdd.tiling.describe(),
                },
            )
            for tile in mdd.tiles.values():
                payload: Optional[bytes] = None
                if self.retain_payload:
                    payload = _cell_bytes(mdd, mdd.materialize_tile(tile))
                blob_oid = self.db.put_blob(payload, size=tile.size_bytes)
                self.db.insert(
                    TILES_TABLE,
                    {
                        "key": f"{oid}:{tile.tile_id}",
                        "oid": oid,
                        "tile_id": tile.tile_id,
                        "domain": str(tile.domain),
                        "blob_oid": blob_oid,
                        "size": tile.size_bytes,
                    },
                )
        mdd.oid = oid
        mdd.resolver = self._make_resolver(oid)
        if mdd.name not in collection:
            collection.add(mdd)
        return oid

    def rewrite_tiles(
        self, mdd: MDD, tile_ids: Sequence[int], cells_of: Callable[[Tile], np.ndarray]
    ) -> None:
        """Replace the BLOBs of persisted tiles *tile_ids* by
        ``cells_of(tile)`` (size-only BLOBs when this storage keeps sizes
        only) and free the old BLOBs that still exist."""
        assert mdd.oid is not None
        for tile_id in tile_ids:
            tile = mdd.tiles[tile_id]
            cells = cells_of(tile)
            payload = _cell_bytes(mdd, cells) if self.retain_payload else None
            new_blob = self.db.put_blob(payload, size=tile.size_bytes)
            found = self.db.table(TILES_TABLE).find_pk(f"{mdd.oid}:{tile_id}")
            assert found is not None
            rowid, row = found
            old_blob = row["blob_oid"]
            self.db.update(TILES_TABLE, rowid, {"blob_oid": new_blob})
            # An archived object's BLOBs were released at export; its rows
            # still name the freed oids.
            if old_blob in self.db.blobs:
                self.db.delete_blob(old_blob)

    def delete_object(self, collection_name: str, object_name: str) -> None:
        """Remove object catalog rows and its tile BLOBs."""
        collection = self.collection(collection_name)
        mdd = collection.get(object_name)
        if mdd.oid is None:
            raise ArrayError(f"object {object_name!r} was never persisted")
        oid = mdd.oid
        with self.db.transaction():
            for _rid, row in self.db.table(TILES_TABLE).scan(
                lambda r: r["oid"] == oid
            ):
                # HEAVEN releases tile BLOBs when migrating to tape; the
                # catalog row then points at freed storage — skip those.
                if row["blob_oid"] in self.db.blobs:
                    self.db.delete_blob(row["blob_oid"])
            self.db.delete_rows(TILES_TABLE, lambda r: r["oid"] == oid)
            self.db.delete_rows(OBJECTS_TABLE, lambda r: r["oid"] == oid)
        collection.remove(object_name)
        mdd.oid = None
        mdd.resolver = None

    def tile_rows(self, oid: int) -> List[dict]:
        """Tile catalog rows of one object, ordered by tile id."""
        rows = [row for _rid, row in self.db.table(TILES_TABLE).scan(
            lambda r: r["oid"] == oid
        )]
        rows.sort(key=lambda r: r["tile_id"])
        return rows

    def object_row(self, oid: int) -> dict:
        found = self.db.table(OBJECTS_TABLE).find_pk(oid)
        if found is None:
            raise ArrayError(f"no object with oid {oid}")
        return found[1]

    def blob_oid_of(self, oid: int, tile_id: int) -> int:
        found = self.db.table(TILES_TABLE).find_pk(f"{oid}:{tile_id}")
        if found is None:
            raise ArrayError(f"tile {tile_id} of object {oid} not stored")
        return found[1]["blob_oid"]

    # -- internals ------------------------------------------------------------------

    def _make_resolver(self, oid: int):
        """Resolver reading one tile's cells back from the BLOB store."""

        def resolve(mdd: MDD, tile: Tile) -> np.ndarray:
            blob_oid = self.blob_oid_of(oid, tile.tile_id)
            raw = self.db.blobs.get(blob_oid)
            if raw is not None:
                return np.frombuffer(raw, dtype=mdd.cell_type.dtype).reshape(
                    tile.domain.shape
                )
            if mdd.source is not None:
                return mdd.source.region(tile.domain, mdd.cell_type)
            raise DomainError(
                f"tile {tile.tile_id} of {mdd.name!r}: no payload retained and "
                "no source to regenerate from"
            )

        return resolve

    def _rebuild_mdd(self, row: dict) -> MDD:
        """Reconstruct an MDD shell from catalog rows (payloads stay lazy)."""
        domain = MInterval.parse(row["domain"])
        cell_type = lookup_cell_type(row["cell_type"])
        tiling_text = row["tiling"]
        if not (tiling_text.startswith("regular(") and tiling_text.endswith(")")):
            raise ArrayError(f"catalog tiling {tiling_text!r} is not regular(...)")
        shape = tuple(
            int(p) for p in tiling_text[len("regular(") : -1].split(",") if p.strip()
        )
        mdd = MDD(row["name"], domain, cell_type, tiling=RegularTiling(shape))
        expected = {t.tile_id: t.domain for t in mdd.tiles.values()}
        for tile_row in self.tile_rows(row["oid"]):
            stored_domain = MInterval.parse(tile_row["domain"])
            if expected.get(tile_row["tile_id"]) != stored_domain:
                raise ArrayError(
                    f"catalog tile {tile_row['tile_id']} domain {stored_domain} "
                    f"does not match rebuilt tiling"
                )
        mdd.oid = row["oid"]
        mdd.resolver = self._make_resolver(row["oid"])
        return mdd


def _cell_bytes(mdd: MDD, cells: np.ndarray) -> bytes:
    """C-order bytes of one tile's cells in the object's cell type."""
    return np.ascontiguousarray(cells, dtype=mdd.cell_type.dtype).tobytes()
