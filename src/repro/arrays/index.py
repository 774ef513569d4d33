"""The tile index of a regular tiling (Kapitel 2.5.4).

:class:`GridIndex` is RasDaMan's *regular computed index*: tile ids are a
pure function of grid coordinates, so a lookup computes the intersecting
grid ranges and needs no search and no stored entries.  Tile domains are
owned by the object (``MDD.tiles``), not by the index.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Tuple

from ..errors import DomainError, TilingError
from .minterval import MInterval


class GridIndex:
    """Computed directory for a regular tiling of a known domain.

    Tile ids are assigned in row-major grid order (as :meth:`MInterval.grid`
    produces them); intersecting grid coordinates are computed
    arithmetically.
    """

    def __init__(self, domain: MInterval, tile_shape: Sequence[int]) -> None:
        if len(tile_shape) != domain.dimension:
            raise TilingError("tile shape dimensionality mismatch")
        self.domain = domain
        self.tile_shape = tuple(int(e) for e in tile_shape)
        self._counts = tuple(
            -(-axis.extent // extent)  # ceil division
            for axis, extent in zip(domain.axes, self.tile_shape)
        )

    @property
    def grid_counts(self) -> Tuple[int, ...]:
        """Number of tiles along each axis."""
        return self._counts

    def tile_id_at(self, grid_coords: Sequence[int]) -> int:
        """Tile id of the grid cell at *grid_coords* (row-major)."""
        tile_id = 0
        for coordinate, count in zip(grid_coords, self._counts):
            if not 0 <= coordinate < count:
                raise DomainError(f"grid coordinate {grid_coords} outside {self._counts}")
            tile_id = tile_id * count + coordinate
        return tile_id

    def intersecting(self, region: MInterval) -> List[int]:
        """Tile ids whose domains intersect *region*, ascending.

        The grid ranges are walked row-major, which is ascending id order.
        """
        clipped = self.domain.intersection(region)
        if clipped is None:
            return []
        ranges = []
        for axis, extent, clip in zip(self.domain.axes, self.tile_shape, clipped.axes):
            first = (clip.lo - axis.lo) // extent
            last = (clip.hi - axis.lo) // extent
            ranges.append(range(first, last + 1))
        return [self.tile_id_at(coords) for coords in itertools.product(*ranges)]
