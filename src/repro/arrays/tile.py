"""Tiles: the unit of array storage (one BLOB each in the base DBMS)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DomainError
from .celltype import CellType
from .minterval import MInterval


@dataclass
class Tile:
    """One rectangular piece of an MDD.

    The payload is materialised lazily: a tile created over a lazy object
    carries no array until the first read pulls it from the object's
    :class:`~repro.arrays.cellsource.CellSource` (or from disk/tape via the
    storage layers).

    Attributes:
        tile_id: id unique within the owning object, assigned in tiling
            (row-major) order — HEAVEN's clustering relies on this order.
        domain: absolute spatial extent of the tile.
        cell_type: the owning object's cell type.
        payload: the cells, shaped ``domain.shape``, or None when not
            materialised.
    """

    tile_id: int
    domain: MInterval
    cell_type: CellType
    payload: Optional[np.ndarray] = None

    @property
    def size_bytes(self) -> int:
        """Storage size of the tile (independent of materialisation)."""
        return self.domain.cell_count * self.cell_type.size_bytes

    @property
    def materialized(self) -> bool:
        return self.payload is not None

    def set_payload(self, cells: np.ndarray) -> None:
        """Attach cells; shape must match the tile domain exactly."""
        if tuple(cells.shape) != self.domain.shape:
            raise DomainError(
                f"tile {self.tile_id}: payload shape {tuple(cells.shape)} != "
                f"domain shape {self.domain.shape}"
            )
        payload = np.ascontiguousarray(cells, dtype=self.cell_type.dtype)
        if not payload.flags.writeable:
            # Resolvers may hand out read-only frombuffer views.
            payload = payload.copy()
        self.payload = payload

    def drop_payload(self) -> None:
        """Release the in-memory cells (they can be re-read from storage)."""
        self.payload = None

    def to_bytes(self) -> bytes:
        """Serialise the payload row-major (requires materialisation)."""
        if self.payload is None:
            raise DomainError(f"tile {self.tile_id} has no payload to serialise")
        return self.payload.tobytes(order="C")

    def from_bytes(self, raw: bytes) -> None:
        """Restore the payload from its serialised form."""
        expected = self.size_bytes
        if len(raw) != expected:
            raise DomainError(
                f"tile {self.tile_id}: {len(raw)} B given, expected {expected} B"
            )
        cells = np.frombuffer(raw, dtype=self.cell_type.dtype).reshape(self.domain.shape)
        self.payload = cells.copy()  # frombuffer is read-only; tiles are writable

    def read(self, region: MInterval) -> np.ndarray:
        """Cells of *region* (must lie inside the tile; needs payload)."""
        if self.payload is None:
            raise DomainError(f"tile {self.tile_id} is not materialised")
        return self.payload[region.to_slices(self.domain)]

    def write(self, region: MInterval, cells: np.ndarray) -> None:
        """Overwrite the cells of *region* (must lie inside the tile)."""
        if self.payload is None:
            raise DomainError(f"tile {self.tile_id} is not materialised")
        self.payload[region.to_slices(self.domain)] = cells
