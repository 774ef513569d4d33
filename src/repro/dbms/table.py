"""Heap tables with schemas, constraints and secondary indexes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConstraintError, SchemaError
from .index import OrderedIndex
from .types import ColumnType, coerce

Row = Dict[str, Any]
Predicate = Callable[[Row], bool]


@dataclass(frozen=True)
class Column:
    """One column definition."""

    name: str
    type: ColumnType
    nullable: bool = True


class Schema:
    """Ordered set of columns plus an optional primary-key column."""

    def __init__(self, columns: Sequence[Column], primary_key: Optional[str] = None) -> None:
        if not columns:
            raise SchemaError("a table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        if primary_key is not None and primary_key not in names:
            raise SchemaError(f"primary key {primary_key!r} is not a column")
        self.columns: Tuple[Column, ...] = tuple(columns)
        self.primary_key = primary_key
        self._by_name = {c.name: c for c in columns}

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def names(self) -> List[str]:
        return [c.name for c in self.columns]

    def validate(self, values: Row) -> Row:
        """Check and coerce a full row dict; returns the stored form."""
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise SchemaError(f"unknown columns {sorted(unknown)}")
        stored: Row = {}
        for column in self.columns:
            value = coerce(values.get(column.name), column.type, column.name)
            if value is None and not column.nullable:
                raise ConstraintError(f"column {column.name!r} is NOT NULL")
            if value is None and column.name == self.primary_key:
                raise ConstraintError(f"primary key {column.name!r} must not be NULL")
            stored[column.name] = value
        return stored


class Table:
    """A heap of rows with a primary-key index and secondary indexes.

    Rows are stored by surrogate rowid; all mutation goes through methods so
    indexes stay consistent and the transaction layer can capture undo
    records.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._rowid_counter = itertools.count(1)
        self._indexes: Dict[str, OrderedIndex] = {}
        if schema.primary_key is not None:
            self.create_index(schema.primary_key, unique=True)

    # -- indexes -------------------------------------------------------------

    def create_index(self, column: str, unique: bool = False) -> OrderedIndex:
        """Create (and backfill) an index on *column*."""
        self.schema.column(column)
        if column in self._indexes:
            raise SchemaError(f"index on {self.name}.{column} already exists")
        index = OrderedIndex(f"{self.name}.{column}", unique=unique)
        for rowid, row in self._rows.items():
            index.insert(row[column], rowid)
        self._indexes[column] = index
        return index

    # -- mutation --------------------------------------------------------------

    def insert(self, values: Row) -> int:
        """Insert a row; returns its rowid."""
        row = self.schema.validate(values)
        self._check_unique(row)
        rowid = next(self._rowid_counter)
        self._rows[rowid] = row
        for column, index in self._indexes.items():
            index.insert(row[column], rowid)
        return rowid

    def update(self, rowid: int, changes: Row) -> Row:
        """Apply *changes* to one row; returns the previous row state."""
        old = self._require(rowid)
        merged = dict(old)
        merged.update(changes)
        new = self.schema.validate(merged)
        pk = self.schema.primary_key
        if pk is not None and new[pk] != old[pk]:
            self._check_unique(new)
        for column, index in self._indexes.items():
            if new[column] != old[column]:
                index.remove(old[column], rowid)
                index.insert(new[column], rowid)
        self._rows[rowid] = new
        return old

    def delete(self, rowid: int) -> Row:
        """Remove one row; returns it (for undo)."""
        row = self._require(rowid)
        for column, index in self._indexes.items():
            index.remove(row[column], rowid)
        del self._rows[rowid]
        return row

    def restore(self, rowid: int, row: Row) -> None:
        """Re-insert a previously deleted row under its old rowid (undo)."""
        if rowid in self._rows:
            raise ConstraintError(f"rowid {rowid} already present in {self.name}")
        self._rows[rowid] = dict(row)
        for column, index in self._indexes.items():
            index.insert(row[column], rowid)

    # -- reads -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def get(self, rowid: int) -> Row:
        return dict(self._require(rowid))

    def scan(self, predicate: Optional[Predicate] = None) -> Iterator[Tuple[int, Row]]:
        """Full scan yielding (rowid, row-copy), optionally filtered."""
        for rowid, row in list(self._rows.items()):
            if predicate is None or predicate(row):
                yield rowid, dict(row)

    def find_by(self, column: str, value: Any) -> List[Tuple[int, Row]]:
        """Equality lookup, via index when one exists."""
        index = self._indexes.get(column)
        if index is not None:
            return [(rowid, dict(self._rows[rowid])) for rowid in index.lookup(value)]
        return [(rid, row) for rid, row in self.scan(lambda r: r[column] == value)]

    def find_pk(self, value: Any) -> Optional[Tuple[int, Row]]:
        """Primary-key lookup; None when absent."""
        pk = self.schema.primary_key
        if pk is None:
            raise SchemaError(f"table {self.name} has no primary key")
        matches = self.find_by(pk, value)
        return matches[0] if matches else None

    # -- internals ---------------------------------------------------------------

    def _require(self, rowid: int) -> Row:
        try:
            return self._rows[rowid]
        except KeyError:
            raise ConstraintError(f"rowid {rowid} not in table {self.name}") from None

    def _check_unique(self, row: Row) -> None:
        pk = self.schema.primary_key
        if pk is None:
            return
        if self.find_by(pk, row[pk]):
            raise ConstraintError(
                f"table {self.name}: duplicate primary key {row[pk]!r}"
            )
