"""System catalog of precomputed operation results (Kapitel 3.8).

At export time HEAVEN records, per tile, the decomposable aggregates
(count, sum, min, max).  A later condenser query over an archived object is
answered by combining the per-tile partials of fully covered tiles and
reading only the *partial edge tiles* of the query region — usually turning
a tape-touching aggregation into pure catalog arithmetic.

The first reduction of an edge tile's overlap is remembered as an *edge
partial* keyed by ``(object, tile_id, overlap box)``, so a repeated
condenser over the same box decodes nothing at all.  Edge partials are
dropped with the tile's aggregate (:meth:`PrecomputedCatalog.refresh_tile`)
and with the object's (:meth:`PrecomputedCatalog.register_object`,
:meth:`PrecomputedCatalog.drop_object`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.query.executor import MDDRef
from ..arrays.tile import Tile
from ..errors import HeavenError

Scalar = Union[int, float, bool]

#: Condensers answerable from (count, sum, min, max) partials.
DECOMPOSABLE = ("add_cells", "avg_cells", "max_cells", "min_cells")

#: Edge partials remembered per tile; the oldest is dropped first.
EDGE_PARTIALS_PER_TILE = 8


@dataclass(frozen=True)
class TileAggregate:
    """Decomposable partial aggregates of one tile."""

    count: int
    total: float
    minimum: float
    maximum: float

    @classmethod
    def of(cls, cells: np.ndarray) -> "TileAggregate":
        if cells.dtype.fields is not None:
            raise HeavenError("precomputed aggregates need scalar cell types")
        return cls(
            count=int(cells.size),
            total=float(cells.sum(dtype=np.float64)),
            minimum=float(cells.min()),
            maximum=float(cells.max()),
        )


@dataclass
class PrecomputedStats:
    """How often the catalog could answer instead of the storage hierarchy."""

    lookups: int = 0
    answered_pure: int = 0      # all tiles fully covered: zero cell reads
    answered_hybrid: int = 0    # edge tiles involved, interior from partials
    declined: int = 0           # not decomposable / no entry
    edge_reused: int = 0        # edge overlaps answered from a remembered partial
    edge_read: int = 0          # edge overlaps read and reduced from cells

    @property
    def answered(self) -> int:
        return self.answered_pure + self.answered_hybrid


class PrecomputedCatalog:
    """Per-object tile aggregates plus the combine logic."""

    def __init__(self) -> None:
        self._tiles: Dict[str, Dict[int, TileAggregate]] = {}
        # object -> tile_id -> overlap box -> partial, oldest first
        self._edges: Dict[str, Dict[int, Dict[MInterval, TileAggregate]]] = {}
        self.stats = PrecomputedStats()

    def register_object(self, mdd: MDD) -> int:
        """Compute and store aggregates for every tile; returns tile count.

        Called during export while tile payloads are still on disk, so the
        scan costs nothing extra on tape.
        """
        if mdd.cell_type.dtype.fields is not None:
            raise HeavenError(
                f"object {mdd.name!r}: struct cell types have no scalar aggregates"
            )
        entries: Dict[int, TileAggregate] = {}
        for tile_id, tile in mdd.tiles.items():
            cells = mdd.materialize_tile(tile)
            entries[tile_id] = TileAggregate.of(cells)
        self._tiles[mdd.name] = entries
        self._edges.pop(mdd.name, None)
        return len(entries)

    def drop_object(self, object_name: str) -> None:
        self._tiles.pop(object_name, None)
        self._edges.pop(object_name, None)

    def refresh_tile(self, mdd: MDD, tile_id: int) -> None:
        """Recompute one tile's partials after an update; forget its edges."""
        entries = self._tiles.setdefault(mdd.name, {})
        entries[tile_id] = TileAggregate.of(mdd.materialize_tile(mdd.tiles[tile_id]))
        self._edges.get(mdd.name, {}).pop(tile_id, None)

    def has_object(self, object_name: str) -> bool:
        return object_name in self._tiles

    # -- answering --------------------------------------------------------------

    def try_answer(
        self,
        condenser: str,
        ref: MDDRef,
        prepare: Optional[Callable[..., List[TileAggregate]]] = None,
    ) -> Optional[Scalar]:
        """Answer a condenser over a lazy reference, or None to decline.

        Interior tiles (fully inside the query region) contribute their
        precomputed partials; edge tiles contribute an aggregate over only
        their overlap — a remembered edge partial when this overlap was
        reduced before, else one computed from the tile's cells and then
        remembered.  *prepare*, when given, is called once as
        ``prepare(mdd, edge_tile_ids, reduce)`` with the edge tiles still
        unknown and must return ``reduce()``; the edge reads run inside
        *reduce*, so the storage layer can stage those tiles first in one
        scheduled tape pass instead of one stage per tile.  HEAVEN runs it
        as one admission query of one unit.
        """
        self.stats.lookups += 1
        entries = self._tiles.get(ref.mdd.name)
        if entries is None or condenser not in DECOMPOSABLE:
            self.stats.declined += 1
            return None
        region = ref.full_region()
        mdd = ref.mdd
        known = self._edges.get(mdd.name, {})
        interior: List[TileAggregate] = []
        edges: List[Tuple[Tile, MInterval, Optional[TileAggregate]]] = []
        for tile in mdd.tiles_for(region):
            if region.contains(tile.domain):
                partial = entries.get(tile.tile_id)
                if partial is None:
                    self.stats.declined += 1
                    return None
                interior.append(partial)
            else:
                overlap = tile.domain.intersection(region)
                assert overlap is not None
                edges.append((tile, overlap, known.get(tile.tile_id, {}).get(overlap)))
        missing = [tile.tile_id for tile, _overlap, partial in edges if partial is None]
        self.stats.edge_reused += len(edges) - len(missing)
        self.stats.edge_read += len(missing)

        def reduce() -> List[TileAggregate]:
            return [
                self._reduce_edge(mdd, tile, overlap) if partial is None else partial
                for tile, overlap, partial in edges
            ]

        edge_partials = (
            prepare(mdd, missing, reduce) if missing and prepare is not None else reduce()
        )
        count, total = 0, 0.0
        minimum, maximum = float("inf"), float("-inf")
        # Interior first, then edges in tile order: the same float
        # summation order as reducing every edge from its cells.
        for partial in interior + edge_partials:
            count += partial.count
            total += partial.total
            minimum = min(minimum, partial.minimum)
            maximum = max(maximum, partial.maximum)
        if count == 0:
            self.stats.declined += 1
            return None
        if edges:
            self.stats.answered_hybrid += 1
        else:
            self.stats.answered_pure += 1
        return {
            "add_cells": total,
            "avg_cells": total / count,
            "max_cells": maximum,
            "min_cells": minimum,
        }[condenser]

    def _reduce_edge(self, mdd: MDD, tile: Tile, overlap: MInterval) -> TileAggregate:
        """Aggregate *overlap* from *tile*'s cells and remember the result.

        The overlap is copied contiguous — the same bytes ``mdd.read``
        assembles — so the sum is bit-identical to reducing a read of it.
        """
        cells = mdd.materialize_tile(tile)
        slices = tuple(
            slice(o.lo - t.lo, o.hi - t.lo + 1)
            for o, t in zip(overlap.axes, tile.domain.axes)
        )
        partial = TileAggregate.of(np.ascontiguousarray(cells[slices]))
        remembered = self._edges.setdefault(mdd.name, {}).setdefault(tile.tile_id, {})
        if len(remembered) >= EDGE_PARTIALS_PER_TILE:
            del remembered[next(iter(remembered))]
        remembered[overlap] = partial
        return partial
