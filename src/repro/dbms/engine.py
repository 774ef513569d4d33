"""The base relational engine: catalog, DDL/DML, transactions, recovery.

Plays the role Oracle/IBM DB2 play under RasDaMan in the paper's reference
architecture (Abbildung 1.3): storage and transaction manager for the array
DBMS's catalogs and tile BLOBs.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SchemaError, TransactionError
from ..tertiary.clock import SimClock
from ..tertiary.profiles import DISK_ARRAY, DiskProfile
from .blob import BlobStore
from .table import Column, Predicate, Row, Schema, Table
from .transaction import Transaction
from .wal import WriteAheadLog


class Database:
    """A small ACID relational database with an attached BLOB store.

    All DML goes through an explicit or implicit transaction; rollback
    restores tables and BLOBs.  Reads are always allowed (single-writer,
    read-committed semantics — sufficient for the storage-manager role).
    """

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        disk_profile: DiskProfile = DISK_ARRAY,
    ) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.wal = WriteAheadLog()
        self.blobs = BlobStore(self.clock, disk_profile)
        self._tables: Dict[str, Table] = {}
        self._txn_counter = itertools.count(1)
        self._current: Optional[Transaction] = None
        #: lifetime transaction-outcome counters (observability metrics)
        self.txns_committed = 0
        self.txns_rolled_back = 0

    # -- DDL -----------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: List[Column],
        primary_key: Optional[str] = None,
    ) -> Table:
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists")
        table = Table(name, Schema(columns, primary_key=primary_key))
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"table {name!r} does not exist")
        del self._tables[name]

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"table {name!r} does not exist") from None

    def tables(self) -> List[str]:
        return sorted(self._tables)

    # -- transactions -----------------------------------------------------------

    def begin(self) -> Transaction:
        """Start an explicit transaction (single writer at a time)."""
        if self._current is not None and self._current.active:
            raise TransactionError("another transaction is already active")
        txn = Transaction(next(self._txn_counter), self.wal)
        self._current = txn
        return txn

    def commit(self) -> None:
        self._require_txn().commit()
        self._current = None
        self.txns_committed += 1

    def rollback(self) -> None:
        self._require_txn().rollback()
        self._current = None
        self.txns_rolled_back += 1

    @property
    def in_transaction(self) -> bool:
        return self._current is not None and self._current.active

    def transaction(self) -> "_TransactionContext":
        """Context manager: commit on success, rollback on exception."""
        return _TransactionContext(self)

    def _require_txn(self) -> Transaction:
        if self._current is None or not self._current.active:
            raise TransactionError("no active transaction")
        return self._current

    def _txn_or_autocommit(self) -> Tuple[Transaction, bool]:
        """Active transaction, or a fresh one to auto-commit."""
        if self.in_transaction:
            assert self._current is not None
            return self._current, False
        return self.begin(), True

    # -- DML ---------------------------------------------------------------------

    def insert(self, table_name: str, values: Row) -> int:
        """Insert one row; returns rowid.  Autocommits outside a txn."""
        table = self.table(table_name)
        txn, auto = self._txn_or_autocommit()
        try:
            rowid = table.insert(values)
            txn.record_insert(table, rowid, table.get(rowid))
        except Exception:
            if auto:
                self.rollback()
            raise
        if auto:
            self.commit()
        return rowid

    def update(self, table_name: str, rowid: int, changes: Row) -> None:
        table = self.table(table_name)
        txn, auto = self._txn_or_autocommit()
        try:
            before = table.update(rowid, changes)
            txn.record_update(table, rowid, before, table.get(rowid))
        except Exception:
            if auto:
                self.rollback()
            raise
        if auto:
            self.commit()

    def delete_rows(self, table_name: str, predicate: Predicate) -> int:
        """Delete all rows matching *predicate*; returns count."""
        table = self.table(table_name)
        txn, auto = self._txn_or_autocommit()
        count = 0
        try:
            for rowid, _row in list(table.scan(predicate)):
                before = table.delete(rowid)
                txn.record_delete(table, rowid, before)
                count += 1
        except Exception:
            if auto:
                self.rollback()
            raise
        if auto:
            self.commit()
        return count

    # -- BLOB DML (transactional) ---------------------------------------------------

    def put_blob(self, payload: Optional[bytes] = None, size: Optional[int] = None) -> int:
        """Store a BLOB under the current (or an autocommit) transaction."""
        txn, auto = self._txn_or_autocommit()
        try:
            oid = self.blobs.put(payload, size)
            txn.record_custom(
                lambda: self.blobs.delete(oid), f"undo put blob#{oid}"
            )
        except Exception:
            if auto:
                self.rollback()
            raise
        if auto:
            self.commit()
        return oid

    def delete_blob(self, oid: int) -> None:
        txn, auto = self._txn_or_autocommit()
        try:
            payload = self.blobs.peek(oid)
            size = self.blobs.size(oid)
            self.blobs.delete(oid)
            txn.record_custom(
                lambda: self.blobs.restore(oid, size, payload),
                f"undo delete blob#{oid}",
            )
        except Exception:
            if auto:
                self.rollback()
            raise
        if auto:
            self.commit()


class _TransactionContext:
    """``with db.transaction():`` — commit on success, rollback on error."""

    def __init__(self, db: Database) -> None:
        self._db = db

    def __enter__(self) -> Transaction:
        return self._db.begin()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._db.in_transaction:
            if exc_type is None:
                self._db.commit()
            else:
                self._db.rollback()
        return False
