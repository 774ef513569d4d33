"""Satellite-imagery workload (DLR / DFD EOWEB style, Abbildung 1.2 left).

Large 2-D mosaics (optionally with a time axis of acquisition passes) with
RGB or single-band cells.  The characteristic access is a small spatial
window ("the customer buys one scene") out of a continent-sized mosaic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..arrays.celltype import CHAR, CellType
from ..arrays.cellsource import CellSource, HashedNoiseSource
from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.tiling import RegularTiling


@dataclass(frozen=True)
class SceneGrid:
    """Geometry of one mosaic: width x height pixels (x passes)."""

    width: int = 4096
    height: int = 4096
    passes: int = 0

    def domain(self) -> MInterval:
        shape = [self.width, self.height]
        if self.passes:
            shape.append(self.passes)
        return MInterval.from_shape(shape)


class VegetationIndexSource(CellSource):
    """Deterministic NDVI-like single-band field (0..200 in CHAR range).

    Smooth large-scale structure (hash noise at block granularity already
    provides spatial patches) with a coastline gradient.
    """

    def __init__(self, seed: int = 0) -> None:
        self.noise = HashedNoiseSource(seed, 0.0, 1.0)

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        from ..arrays.celltype import DOUBLE

        coords = np.meshgrid(
            *(np.arange(a.lo, a.hi + 1, dtype=np.float64) for a in domain.axes),
            indexing="ij",
        )
        gradient = (np.sin(coords[0] / 512.0) + np.cos(coords[1] / 384.0)) * 0.25 + 0.5
        noise = self.noise.region(domain, DOUBLE)
        value = np.clip((0.6 * gradient + 0.4 * noise) * 200.0, 0, 200)
        if cell_type.dtype.fields is not None:
            struct = np.zeros(domain.shape, dtype=cell_type.dtype)
            names = cell_type.dtype.names or ()
            for position, field_name in enumerate(names):
                struct[field_name] = np.clip(
                    value * (0.5 + 0.25 * position), 0, 255
                ).astype(cell_type.dtype[field_name])
            return struct
        return value.astype(cell_type.dtype)


def satellite_object(
    name: str,
    grid: Optional[SceneGrid] = None,
    seed: int = 0,
    cell_type: CellType = CHAR,
    tiling: Optional[RegularTiling] = None,
) -> MDD:
    """An MDD holding one mosaic (vegetation index by default)."""
    grid = grid if grid is not None else SceneGrid()
    domain = grid.domain()
    if tiling is None:
        tile_shape = [min(512, grid.width), min(512, grid.height)]
        if grid.passes:
            tile_shape.append(1)
        tiling = RegularTiling(tuple(tile_shape))
    return MDD(
        name,
        domain,
        cell_type,
        tiling=tiling,
        source=VegetationIndexSource(seed),
    )
