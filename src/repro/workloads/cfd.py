"""Computational-fluid-dynamics workload (Numeca / University of Surrey
style): 3-D velocity+pressure fields with struct cell types.

Exercises the code paths scalar workloads miss: struct cells archive and
retrieve byte-identically through super-tiles, caches and compression, but
are excluded from scalar-only optimisations (precomputed aggregates,
pyramids) — exactly the trade the visualisation partners lived with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..arrays.celltype import CellType, lookup, struct_type
from ..arrays.cellsource import CellSource, HashedNoiseSource
from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.tiling import RegularTiling
from ..errors import CellTypeError


def flow_cell_type() -> CellType:
    """The ``flow_t`` struct: velocities (u, v, w) plus pressure p."""
    try:
        return lookup("flow_t")
    except CellTypeError:
        return struct_type(
            "flow_t",
            [("u", "float"), ("v", "float"), ("w", "float"), ("p", "float")],
        )


@dataclass(frozen=True)
class FlowGrid:
    """Geometry of one CFD snapshot."""

    nx: int = 128
    ny: int = 64
    nz: int = 64

    def domain(self) -> MInterval:
        return MInterval.from_shape([self.nx, self.ny, self.nz])


class ChannelFlowSource(CellSource):
    """Deterministic channel flow with a parabolic profile plus turbulence.

    Streamwise velocity u follows a parabolic profile across y (no-slip
    walls), v/w carry deterministic turbulent fluctuations, and pressure
    falls linearly downstream.
    """

    def __init__(self, grid: FlowGrid, seed: int = 0, turbulence: float = 0.3) -> None:
        self.grid = grid
        self.noise_v = HashedNoiseSource(seed + 1, -turbulence, turbulence)
        self.noise_w = HashedNoiseSource(seed + 2, -turbulence, turbulence)

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        from ..arrays.celltype import DOUBLE

        coords = np.meshgrid(
            *(np.arange(a.lo, a.hi + 1, dtype=np.float64) for a in domain.axes),
            indexing="ij",
        )
        x, y = coords[0], coords[1]
        wall = max(1, self.grid.ny - 1)
        profile = 4.0 * (y / wall) * (1.0 - y / wall)  # 0 at walls, 1 centre
        out = np.zeros(domain.shape, dtype=cell_type.dtype)
        out["u"] = (2.0 * profile).astype(cell_type.dtype["u"])
        out["v"] = self.noise_v.region(domain, DOUBLE).astype(cell_type.dtype["v"])
        out["w"] = self.noise_w.region(domain, DOUBLE).astype(cell_type.dtype["w"])
        out["p"] = (101.3 - 0.05 * x).astype(cell_type.dtype["p"])
        return out


def cfd_object(
    name: str,
    grid: Optional[FlowGrid] = None,
    seed: int = 0,
    tiling: Optional[RegularTiling] = None,
) -> MDD:
    """An MDD holding one channel-flow snapshot (struct cells)."""
    grid = grid if grid is not None else FlowGrid()
    cell_type = flow_cell_type()
    domain = grid.domain()
    if tiling is None:
        tiling = RegularTiling(
            (min(32, grid.nx), min(32, grid.ny), min(16, grid.nz))
        )
    return MDD(
        name, domain, cell_type, tiling=tiling, source=ChannelFlowSource(grid, seed)
    )
