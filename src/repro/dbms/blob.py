"""BLOB store of the base DBMS.

RasDaMan persists every tile as one BLOB in the underlying RDBMS; this store
reproduces that contract: oid-addressed byte strings whose reads/writes are
charged to a disk device, so the coupled export path (tile-by-tile through
the base DBMS) costs what it costs in the paper.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import BlobNotFoundError
from ..tertiary.clock import SimClock
from ..tertiary.disk import DiskDevice
from ..tertiary.profiles import DISK_ARRAY, DiskProfile


@dataclass
class BlobInfo:
    """Metadata of one stored BLOB."""

    oid: int
    size: int


class BlobStore:
    """Disk-backed BLOB container.

    A BLOB put without payload bytes is *size-only*: it occupies and
    charges its declared size, and reads of it return None.

    Args:
        clock: shared simulator clock for I/O costing.
        profile: disk the store lives on.
    """

    def __init__(self, clock: SimClock, profile: DiskProfile = DISK_ARRAY) -> None:
        self.disk = DiskDevice("dbms-blobs", profile, clock)
        self._sizes: Dict[int, int] = {}
        self._payloads: Dict[int, bytes] = {}
        self._oid_counter = itertools.count(1)

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, oid: int) -> bool:
        return oid in self._sizes

    @property
    def total_bytes(self) -> int:
        return sum(self._sizes.values())

    def put(self, payload: Optional[bytes] = None, size: Optional[int] = None) -> int:
        """Store a new BLOB; returns its oid.

        Either *payload* (authoritative size) or a declared *size* must be
        given; the write is charged to the disk.
        """
        if payload is None and size is None:
            raise ValueError("put() needs payload bytes or a declared size")
        if payload is not None:
            size = len(payload)
        assert size is not None
        oid = next(self._oid_counter)
        self.disk.write(size, detail=f"blob#{oid}")
        self.disk.reserve(size)
        self._sizes[oid] = size
        if payload is not None:
            self._payloads[oid] = payload
        return oid

    def get(self, oid: int) -> Optional[bytes]:
        """Read a BLOB (charged); returns its bytes, None when size-only."""
        size = self._require(oid)
        self.disk.read(size, detail=f"blob#{oid}")
        return self._payloads.get(oid)

    def size(self, oid: int) -> int:
        """Size in bytes without touching the disk (catalog metadata)."""
        return self._require(oid)

    def delete(self, oid: int) -> int:
        """Remove a BLOB; returns its size."""
        size = self._require(oid)
        self.disk.release(size)
        del self._sizes[oid]
        self._payloads.pop(oid, None)
        return size

    def restore(self, oid: int, size: int, payload: Optional[bytes]) -> None:
        """Undo helper: bring a deleted BLOB back under its old oid."""
        if oid in self._sizes:
            raise ValueError(f"blob oid {oid} already present")
        self.disk.reserve(size)
        self._sizes[oid] = size
        if payload is not None:
            self._payloads[oid] = payload

    def peek(self, oid: int) -> Optional[bytes]:
        """Payload without charging I/O (for undo capture)."""
        self._require(oid)
        return self._payloads.get(oid)

    def _require(self, oid: int) -> int:
        try:
            return self._sizes[oid]
        except KeyError:
            raise BlobNotFoundError(f"blob oid {oid} not found") from None
