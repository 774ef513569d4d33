"""Write-ahead log giving the base DBMS durability bookkeeping.

The log records logical operations (insert/update/delete/commit/abort).
Recovery replays committed transactions in order — enough ACID machinery to
support HEAVEN's export/delete/re-import paths, where an aborted export must
leave the catalogs untouched.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


class LogKind(enum.Enum):
    BEGIN = "begin"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


@dataclass(frozen=True)
class LogRecord:
    """One WAL entry."""

    lsn: int
    txn_id: int
    kind: LogKind
    table: Optional[str] = None
    rowid: Optional[int] = None
    before: Optional[Dict[str, Any]] = None
    after: Optional[Dict[str, Any]] = None


#: record kinds whose append forces a durable log sync
_SYNC_KINDS = frozenset({LogKind.COMMIT, LogKind.CHECKPOINT})


class WriteAheadLog:
    """Append-only in-memory log with monotonically increasing LSNs.

    Keeps lifetime counters (:attr:`appends`, :attr:`syncs`) that survive
    :meth:`truncate`, feeding the ``repro_wal_*`` observability metrics.
    """

    def __init__(self) -> None:
        self._records: List[LogRecord] = []
        self._lsn = itertools.count(1)
        #: records ever appended (not reset by truncate)
        self.appends = 0
        #: appends that would force a durable sync (commit/checkpoint)
        self.syncs = 0

    def append(
        self,
        txn_id: int,
        kind: LogKind,
        table: Optional[str] = None,
        rowid: Optional[int] = None,
        before: Optional[Dict[str, Any]] = None,
        after: Optional[Dict[str, Any]] = None,
    ) -> LogRecord:
        record = LogRecord(
            lsn=next(self._lsn),
            txn_id=txn_id,
            kind=kind,
            table=table,
            rowid=rowid,
            before=dict(before) if before is not None else None,
            after=dict(after) if after is not None else None,
        )
        self._records.append(record)
        self.appends += 1
        if kind in _SYNC_KINDS:
            self.syncs += 1
        return record

    def records(self) -> List[LogRecord]:
        return list(self._records)

    def records_for(self, txn_id: int) -> List[LogRecord]:
        return [r for r in self._records if r.txn_id == txn_id]

    def committed_txns(self) -> List[int]:
        """Transaction ids with a COMMIT record, in commit order."""
        return [r.txn_id for r in self._records if r.kind is LogKind.COMMIT]

    def truncate(self) -> int:
        """Checkpoint: drop all records; returns how many were dropped."""
        dropped = len(self._records)
        self._records.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._records)
