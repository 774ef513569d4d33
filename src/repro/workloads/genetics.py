"""Genetics workload (IHPC&DB St. Petersburg style).

Pairwise sequence-similarity matrices: 2-D score fields whose mass
concentrates in a band around the diagonal (homologous regions align
near-collinearly).  The canonical access is exactly that band — a query
no hypercube can express without dragging the whole matrix along, which
makes this the show-case for Object Framing's half-space frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..arrays.celltype import CellType, FLOAT
from ..arrays.cellsource import CellSource, HashedNoiseSource
from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.tiling import RegularTiling
from ..core.framing import HalfSpaceFrame, Frame


@dataclass(frozen=True)
class AlignmentGrid:
    """Geometry of one similarity matrix: |seq A| x |seq B| scores."""

    length_a: int = 4096
    length_b: int = 4096

    def domain(self) -> MInterval:
        return MInterval.from_shape([self.length_a, self.length_b])


class SimilaritySource(CellSource):
    """Deterministic similarity scores with diagonal-band structure.

    Scores decay exponentially with distance from the (scaled) diagonal,
    with deterministic noise and periodic repeat-region ridges.
    """

    def __init__(self, grid: AlignmentGrid, seed: int = 0, band_width: float = 0.05) -> None:
        self.grid = grid
        self.band = max(1.0, band_width * max(grid.length_a, grid.length_b))
        self.noise = HashedNoiseSource(seed, 0.0, 0.2)

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        from ..arrays.celltype import DOUBLE

        coords = np.meshgrid(
            *(np.arange(a.lo, a.hi + 1, dtype=np.float64) for a in domain.axes),
            indexing="ij",
        )
        i, j = coords[0], coords[1]
        # Distance from the scaled diagonal j = i * len_b/len_a.
        slope = self.grid.length_b / max(1, self.grid.length_a)
        distance = np.abs(j - i * slope)
        score = np.exp(-distance / self.band)
        ridges = 0.15 * (np.sin(i / 97.0) * np.sin(j / 89.0)) ** 2
        noise = self.noise.region(domain, DOUBLE)
        return np.clip(score + ridges + noise, 0.0, 1.0).astype(cell_type.dtype)


def alignment_object(
    name: str,
    grid: Optional[AlignmentGrid] = None,
    seed: int = 0,
    cell_type: CellType = FLOAT,
    tiling: Optional[RegularTiling] = None,
) -> MDD:
    """An MDD holding one similarity matrix."""
    grid = grid if grid is not None else AlignmentGrid()
    domain = grid.domain()
    if tiling is None:
        tiling = RegularTiling(
            (min(256, grid.length_a), min(256, grid.length_b))
        )
    return MDD(
        name, domain, cell_type, tiling=tiling, source=SimilaritySource(grid, seed)
    )


def diagonal_band_frame(grid: AlignmentGrid, half_width: int) -> Frame:
    """The band |j - i·slope| <= half_width as an Object-Framing frame.

    Implemented as two half-spaces:
    ``j - slope·i <= w`` and ``slope·i - j <= w``.
    """
    slope = grid.length_b / max(1, grid.length_a)
    return HalfSpaceFrame(
        grid.domain(),
        [
            ([-slope, 1.0], float(half_width)),
            ([slope, -1.0], float(half_width)),
        ],
    )
