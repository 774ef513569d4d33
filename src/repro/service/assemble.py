"""Service-node reassembly of shard responses into one region array.

A service node holds no cells — only :class:`~repro.core.units
.ObjectDescriptor` catalog entries.  For each object it builds a
*shadow MDD* from the descriptor's domain, cell type and regular tiling,
which are the data nodes' own: the shadow has their tile ids and their
grid index.  Data nodes answer each tile clipped to its overlap with the
query region (:class:`~repro.core.units.TilePayload` ``domain`` is that
clip box), so reassembly is one paste per tile: the shadow's grid index
names the clip box each tile must cover, the payload must name the
object's cell type,
and the received byte view is decoded by the wire's one tile decoder and
copied straight into the region array.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.tile import Tile
from ..core.units import ObjectDescriptor, TilePayload, _cells
from ..errors import ShardUnavailableError, WireFormatError

__all__ = ["ShadowObject"]


class ShadowObject:
    """Cell-less stand-in for one remote object on a service node."""

    def __init__(self, descriptor: ObjectDescriptor) -> None:
        self.descriptor = descriptor
        self.mdd = MDD(
            descriptor.name,
            descriptor.domain,
            descriptor.cell_type,
            tiling=descriptor.tiling,
        )
        # No local cells, ever: only geometry.
        self.mdd.source = None

    @property
    def domain(self) -> MInterval:
        return self.mdd.domain

    def tiles_for(self, region: MInterval) -> List[Tile]:
        return self.mdd.tiles_for(region)

    def estimated_read_bytes(self, region: MInterval) -> int:
        """Quota pre-charge estimate: the clipped region's cell volume."""
        clipped = self.mdd.domain.intersection(region)
        if clipped is None:
            return 0
        return clipped.cell_count * self.mdd.cell_type.size_bytes

    def assemble(
        self,
        region: MInterval,
        payloads: Dict[int, TilePayload],
        *,
        tiles: Optional[Sequence[Tile]] = None,
        missing_fill: Optional[float] = None,
    ) -> np.ndarray:
        """Paste the received tile clips into one region array.

        Args:
            region: the read's region, inside the object's domain (the
                service node checks it before it charges the read).
            payloads: tile id -> received payload covering that tile's
                overlap with *region* (byte views decode to read-only cell
                arrays, zero-copy).  A payload whose clip box or cell type
                is not the one expected raises :class:`WireFormatError`.
            tiles: *region*'s tile cover, ``tiles_for(region)``, when the
                caller already has it (the service node split the read by
                it); looked up here otherwise.
            missing_fill: with ``None`` (default) a tile no shard
                delivered raises :class:`ShardUnavailableError`; a float
                fills such tiles instead — the degraded partial-result
                mode.
        """
        cell_type = self.mdd.cell_type
        dtype = cell_type.dtype
        out = np.empty(region.shape, dtype=dtype)
        bounds = [(axis.lo, axis.hi) for axis in region.axes]
        for tile in self.tiles_for(region) if tiles is None else tiles:
            # The tile's overlap with the region, by integer arithmetic.
            window, shape, box = [], [], []
            for (r_lo, r_hi), axis in zip(bounds, tile.domain.axes):
                lo, hi = max(axis.lo, r_lo), min(axis.hi, r_hi)
                window.append(slice(lo - r_lo, hi - r_lo + 1))
                shape.append(hi - lo + 1)
                box.append(f"{lo}:{hi}")
            clip = ",".join(box)
            payload = payloads.get(tile.tile_id)
            if payload is None:
                if missing_fill is None:
                    raise ShardUnavailableError(
                        f"no shard delivered tile {tile.tile_id} of "
                        f"{self.descriptor.name!r}"
                    )
                out[tuple(window)] = missing_fill
            elif payload.domain != clip:
                raise WireFormatError(
                    f"tile {tile.tile_id} of {self.descriptor.name!r} arrived "
                    f"as {payload.domain}, expected its overlap {clip}"
                )
            elif payload.dtype != cell_type.name:
                raise WireFormatError(
                    f"tile {tile.tile_id} of {self.descriptor.name!r} arrived "
                    f"as {payload.dtype} cells, expected {cell_type.name}"
                )
            else:
                out[tuple(window)] = _cells(payload, dtype, tuple(shape))
        return out
