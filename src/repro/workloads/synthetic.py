"""Payload-free synthetic cubes for cost experiments."""

from __future__ import annotations

from ..arrays import DOUBLE, MDD, MInterval, RegularTiling, ZeroSource
from ..tertiary import MB


def zero_object(object_mb: int, tile_kb: int = 256, dims: int = 3,
                name: str = "obj") -> MDD:
    """A *dims*-dimensional cube of about *object_mb* MB, square-ish tiles."""
    cells = object_mb * MB // DOUBLE.size_bytes
    side = max(1, int(round(cells ** (1.0 / dims))))
    tile_cells = tile_kb * 1024 // DOUBLE.size_bytes
    tile_side = max(1, int(round(tile_cells ** (1.0 / dims))))
    return MDD(
        name,
        MInterval.from_shape((side,) * dims),
        DOUBLE,
        tiling=RegularTiling((min(tile_side, side),) * dims),
        source=ZeroSource(),
    )
