"""Regular tiling: how an MDD's domain is cut into storage tiles.

RasDaMan's physical data model (Kapitel 2.5.3) stores an MDD as a set of
non-overlapping rectangular *tiles*, each persisted as one BLOB.  The tiling
determines everything HEAVEN later optimises: tiles are the atoms that STAR
groups into super-tiles, and tile geometry decides how many tiles a given
query box touches.  Every object is tiled by one fixed tile shape, so its
tiles form a grid and tile lookup is arithmetic (:class:`~repro.arrays
.index.GridIndex`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..errors import TilingError
from .minterval import MInterval


@dataclass(frozen=True)
class RegularTiling:
    """Fixed tile shape, the common RasDaMan default.

    Attributes:
        tile_shape: cell extents of one tile per dimension; border tiles are
            clipped to the domain.
    """

    tile_shape: Sequence[int]

    def tile_domains(self, domain: MInterval) -> List[MInterval]:
        """Partition *domain* into disjoint covering boxes (row-major order)."""
        if len(self.tile_shape) != domain.dimension:
            raise TilingError(
                f"tile shape {tuple(self.tile_shape)} does not match "
                f"{domain.dimension}-D domain"
            )
        if any(e < 1 for e in self.tile_shape):
            raise TilingError(f"tile extents must be >= 1: {tuple(self.tile_shape)}")
        return domain.grid(list(self.tile_shape))

    def describe(self) -> str:
        """Catalog text, ``regular(…)``; the storage layer parses it back."""
        return f"regular{tuple(self.tile_shape)}"
