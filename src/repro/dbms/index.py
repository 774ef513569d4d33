"""Ordered secondary index used by the base DBMS.

A thin sorted-list index (bisect-based) standing in for the B-tree of a real
RDBMS: logarithmic point lookup, duplicate keys allowed.
"""

from __future__ import annotations

import bisect
from typing import Any, List


class OrderedIndex:
    """Maps comparable keys to sets of row ids, kept in key order."""

    def __init__(self, name: str, unique: bool = False) -> None:
        self.name = name
        self.unique = unique
        self._keys: List[Any] = []
        self._rowids: List[int] = []

    def __len__(self) -> int:
        return len(self._keys)

    def insert(self, key: Any, rowid: int) -> None:
        """Add an entry; duplicate keys are legal unless the index is unique."""
        position = bisect.bisect_left(self._keys, key)
        if self.unique and position < len(self._keys) and self._keys[position] == key:
            raise KeyError(f"index {self.name}: duplicate key {key!r}")
        self._keys.insert(position, key)
        self._rowids.insert(position, rowid)

    def remove(self, key: Any, rowid: int) -> None:
        """Remove exactly one (key, rowid) entry."""
        position = bisect.bisect_left(self._keys, key)
        while position < len(self._keys) and self._keys[position] == key:
            if self._rowids[position] == rowid:
                del self._keys[position]
                del self._rowids[position]
                return
            position += 1
        raise KeyError(f"index {self.name}: entry ({key!r}, {rowid}) not found")

    def lookup(self, key: Any) -> List[int]:
        """Row ids with exactly this key, in insertion-position order."""
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._rowids[lo:hi]
