"""Transactions: undo-based atomicity over the table layer.

One writer at a time (the engine serialises), undo records captured for
every mutation, rollback restores tables and blob store exactly.  This is
the ACID surface the paper lists as a core benefit of moving archive data
under DBMS control (Kapitel 1.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List

from ..errors import TransactionError
from .table import Row, Table
from .wal import LogKind, WriteAheadLog


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class UndoRecord:
    """Inverse of one mutation, applied on rollback (in reverse order)."""

    apply: Callable[[], None]
    description: str


class Transaction:
    """A unit of work over the engine's tables and blob store."""

    def __init__(self, txn_id: int, wal: WriteAheadLog) -> None:
        self.txn_id = txn_id
        self._wal = wal
        self.state = TxnState.ACTIVE
        self._undo: List[UndoRecord] = []
        self._wal.append(txn_id, LogKind.BEGIN)

    # -- mutation capture ---------------------------------------------------

    def record_insert(self, table: Table, rowid: int, row: Row) -> None:
        self._require_active()
        self._wal.append(self.txn_id, LogKind.INSERT, table.name, rowid, after=row)
        self._undo.append(
            UndoRecord(
                apply=lambda: table.delete(rowid),
                description=f"undo insert {table.name}#{rowid}",
            )
        )

    def record_update(self, table: Table, rowid: int, before: Row, after: Row) -> None:
        self._require_active()
        self._wal.append(
            self.txn_id, LogKind.UPDATE, table.name, rowid, before=before, after=after
        )
        self._undo.append(
            UndoRecord(
                apply=lambda: table.update(rowid, before),
                description=f"undo update {table.name}#{rowid}",
            )
        )

    def record_delete(self, table: Table, rowid: int, before: Row) -> None:
        self._require_active()
        self._wal.append(self.txn_id, LogKind.DELETE, table.name, rowid, before=before)
        self._undo.append(
            UndoRecord(
                apply=lambda: table.restore(rowid, before),
                description=f"undo delete {table.name}#{rowid}",
            )
        )

    def record_custom(self, undo: Callable[[], None], description: str) -> None:
        """Capture an arbitrary compensating action (used by the blob store)."""
        self._require_active()
        self._undo.append(UndoRecord(apply=undo, description=description))

    # -- lifecycle ------------------------------------------------------------

    def commit(self) -> None:
        self._require_active()
        self._wal.append(self.txn_id, LogKind.COMMIT)
        self.state = TxnState.COMMITTED
        self._undo.clear()

    def rollback(self) -> None:
        self._require_active()
        for record in reversed(self._undo):
            record.apply()
        self._undo.clear()
        self._wal.append(self.txn_id, LogKind.ABORT)
        self.state = TxnState.ABORTED

    @property
    def active(self) -> bool:
        return self.state is TxnState.ACTIVE

    def _require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.state.value}, not active"
            )
