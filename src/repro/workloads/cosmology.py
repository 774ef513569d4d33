"""Cosmology-simulation workload (Cineca style).

Density fields of structure-formation runs: 3-D cubes whose mass clusters
into filaments and halos.  Modelled as multiplicative (log-normal-ish)
noise so the field has the heavy spatial skew that makes subsetting
worthwhile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..arrays.celltype import DOUBLE, FLOAT, CellType
from ..arrays.cellsource import CellSource, HashedNoiseSource
from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.tiling import RegularTiling


@dataclass(frozen=True)
class SimulationBox:
    """Geometry of one snapshot: a cube of *cells_per_axis**3 density cells."""

    cells_per_axis: int = 256
    snapshots: int = 0

    def domain(self) -> MInterval:
        shape = [self.cells_per_axis] * 3
        if self.snapshots:
            shape.append(self.snapshots)
        return MInterval.from_shape(shape)


class DensitySource(CellSource):
    """Deterministic clustered density field (dimensionless overdensity)."""

    def __init__(self, seed: int = 0) -> None:
        self.noise_a = HashedNoiseSource(seed, 0.0, 1.0)
        self.noise_b = HashedNoiseSource(seed + 104729, 0.0, 1.0)

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        a = self.noise_a.region(domain, DOUBLE)
        b = self.noise_b.region(domain, DOUBLE)
        # Product of two fields skews mass into rare dense cells.
        density = np.exp(2.5 * (a * b) - 0.5)
        return density.astype(cell_type.dtype)


def cosmology_object(
    name: str,
    box: Optional[SimulationBox] = None,
    seed: int = 0,
    cell_type: CellType = FLOAT,
    tiling: Optional[RegularTiling] = None,
) -> MDD:
    """An MDD holding one density snapshot."""
    box = box if box is not None else SimulationBox()
    domain = box.domain()
    if tiling is None:
        edge = min(64, box.cells_per_axis)
        tile_shape = [edge, edge, edge]
        if box.snapshots:
            tile_shape.append(1)
        tiling = RegularTiling(tuple(tile_shape))
    return MDD(name, domain, cell_type, tiling=tiling, source=DensitySource(seed))
