"""Climate-model workload (DKRZ / MPI-Met style, Abbildung 1.2 right).

Generates the dissertation's running example: temperature fields over
longitude x latitude x height x time with physically plausible structure —
latitudinal gradient (warm equator, cold poles), lapse rate with height,
seasonal oscillation in time, plus deterministic weather noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..arrays.celltype import DOUBLE, CellType
from ..arrays.cellsource import CellSource, HashedNoiseSource
from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.tiling import RegularTiling


@dataclass(frozen=True)
class ClimateGrid:
    """Geometry of one climate-model output object.

    Attributes:
        longitudes: grid points around the globe (axis 0).
        latitudes: grid points pole to pole (axis 1).
        heights: vertical levels (axis 2).
        time_steps: simulated steps (axis 3); 0 drops the time axis.
    """

    longitudes: int = 360
    latitudes: int = 180
    heights: int = 32
    time_steps: int = 0

    @property
    def dimension(self) -> int:
        return 3 if self.time_steps == 0 else 4

    def domain(self) -> MInterval:
        shape = [self.longitudes, self.latitudes, self.heights]
        if self.time_steps:
            shape.append(self.time_steps)
        return MInterval.from_shape(shape)


class TemperatureSource(CellSource):
    """Deterministic temperature field in degrees Celsius."""

    def __init__(self, grid: ClimateGrid, seed: int = 0, noise_scale: float = 2.0) -> None:
        self.grid = grid
        self.noise = HashedNoiseSource(seed, -noise_scale, noise_scale)

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        coords = np.meshgrid(
            *(np.arange(a.lo, a.hi + 1, dtype=np.float64) for a in domain.axes),
            indexing="ij",
        )
        latitude_fraction = coords[1] / max(1, self.grid.latitudes - 1)  # 0..1
        height = coords[2]
        base = 30.0 * np.cos((latitude_fraction - 0.5) * math.pi)  # equator warm
        lapse = -6.5 * (height / max(1, self.grid.heights)) * 8.0  # ~ -6.5 K/km
        seasonal = 0.0
        if self.grid.time_steps and domain.dimension >= 4:
            seasonal = 10.0 * np.sin(2.0 * math.pi * coords[3] / 12.0) * (
                latitude_fraction - 0.5
            ) * 2.0
        noise = self.noise.region(domain, DOUBLE)
        return (base + lapse + seasonal + noise).astype(cell_type.dtype)


def climate_object(
    name: str,
    grid: Optional[ClimateGrid] = None,
    seed: int = 0,
    cell_type: CellType = DOUBLE,
    tiling: Optional[RegularTiling] = None,
) -> MDD:
    """An MDD holding one climate-model output field."""
    grid = grid if grid is not None else ClimateGrid()
    domain = grid.domain()
    if tiling is None:
        tile_shape = [min(60, grid.longitudes), min(60, grid.latitudes), min(8, grid.heights)]
        if grid.time_steps:
            tile_shape.append(min(12, grid.time_steps))
        tiling = RegularTiling(tuple(tile_shape))
    return MDD(
        name,
        domain,
        cell_type,
        tiling=tiling,
        source=TemperatureSource(grid, seed=seed),
    )


def monthly_series(
    prefix: str,
    months: int,
    grid: Optional[ClimateGrid] = None,
    seed: int = 0,
) -> list:
    """One 3-D object per month (the paper's right-hand cube of Abb. 1.1).

    Cross-file time-series queries (mean over months at one height) then
    need a slice of *every* object — the access type that kills file-level
    archives.
    """
    grid = grid if grid is not None else ClimateGrid()
    return [
        climate_object(f"{prefix}-{month:02d}", grid, seed=seed + month)
        for month in range(months)
    ]
