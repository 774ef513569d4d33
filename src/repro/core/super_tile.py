"""The Super-Tile concept and the STAR grouping algorithm (Kapitel 3.2).

DBMS tiles (hundreds of KB) are a hopeless access granularity for tape: one
positioning operation costs as much as streaming tens of MB.  HEAVEN groups
spatially contiguous tiles into *super-tiles* of a target byte size — the
unit of all tertiary-storage I/O.  STAR (Super-Tile AlgoRithm) partitions a
regularly tiled object's tile grid into hyper-rectangular blocks of tiles
whose combined size approximates the target.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..errors import HeavenError


@dataclass
class SuperTile:
    """A group of tiles stored as one contiguous tape segment.

    Attributes:
        index: position of the super-tile in cluster order (0-based).
        object_name: owning MDD's name.
        tile_ids: member tiles in *intra-super-tile cluster order* — the
            byte order inside the tape segment.
        domain: hull of the member tile domains.
        size_bytes: total on-tape bytes of all member tiles.
        segment_name: tape segment holding them, set at export.
        tile_extents: per-tile (offset, length) of its frame inside the
            segment — its on-tape size — set at export in cluster order.
    """

    index: int
    object_name: str
    tile_ids: List[int]
    domain: MInterval
    size_bytes: int
    segment_name: Optional[str] = None
    tile_extents: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    @property
    def tile_count(self) -> int:
        return len(self.tile_ids)

    def assign_extents(self, sizes: Dict[int, int]) -> None:
        """Lay member tiles out back-to-back in cluster order."""
        offset = 0
        self.tile_extents = {}
        for tile_id in self.tile_ids:
            length = sizes[tile_id]
            self.tile_extents[tile_id] = (offset, length)
            offset += length
        if offset != self.size_bytes:
            raise HeavenError(
                f"super-tile {self.index} of {self.object_name!r}: extents sum "
                f"to {offset}, expected {self.size_bytes}"
            )

    def run_covering(self, tile_ids: Sequence[int]) -> Tuple[int, int]:
        """Smallest contiguous byte run inside the segment covering *tile_ids*.

        Intra-super-tile clustering exists precisely to make this run short
        for typical queries (Kapitel 3.3).
        """
        extents = [self.tile_extents[t] for t in tile_ids]
        if not extents:
            raise HeavenError("run_covering needs at least one tile")
        start = min(offset for offset, _length in extents)
        end = max(offset + length for offset, length in extents)
        return start, end - start


def grid_block_shape(
    grid_counts: Sequence[int],
    tiles_per_super_tile: int,
    axis_order: Sequence[int],
) -> List[int]:
    """Block extents (in grid units) for grouping *tiles_per_super_tile* tiles.

    Axes are filled greedily in *axis_order*: the first axis takes as many
    grid steps as the budget allows, the remainder flows to the next axis.
    The default STAR order fills the fastest-varying (row-major innermost)
    axis first so member tiles are physically adjacent in tile-id order.
    """
    if sorted(axis_order) != list(range(len(grid_counts))):
        raise HeavenError(f"axis order {axis_order} is not a permutation")
    shape = [1] * len(grid_counts)
    remaining = max(1, tiles_per_super_tile)
    for axis in axis_order:
        take = min(grid_counts[axis], remaining)
        shape[axis] = take
        remaining //= take
        if remaining <= 1:
            break
    return shape


def star_partition(
    mdd: MDD,
    target_bytes: int,
    axis_order: Optional[Sequence[int]] = None,
) -> List[SuperTile]:
    """STAR: partition a regularly tiled object into super-tiles.

    The object's tile grid is cut into blocks of
    ``grid_block_shape(...)`` tiles; each block becomes one super-tile whose
    member tiles are listed in row-major order within the block (the default
    intra order; eSTAR may reorder them).

    Args:
        mdd: the object to partition.
        target_bytes: desired super-tile size.
        axis_order: grid axes in fill priority; default fills the
            fastest-varying axis first (row-major adjacency).

    Returns:
        Super-tiles in cluster order, covering every tile exactly once.
    """
    if target_bytes <= 0:
        raise HeavenError(f"target super-tile size must be positive: {target_bytes}")
    index = mdd.index
    counts = index.grid_counts
    dimension = len(counts)
    if axis_order is None:
        axis_order = list(range(dimension - 1, -1, -1))
    # Uniform interior tile size; edge tiles may be smaller, which only
    # makes super-tiles slightly undersized (harmless).
    max_tile_bytes = max(t.size_bytes for t in mdd.tiles.values())
    tiles_per_st = max(1, target_bytes // max_tile_bytes)
    block_shape = grid_block_shape(counts, tiles_per_st, axis_order)

    blocks_per_axis = [
        -(-count // extent) for count, extent in zip(counts, block_shape)
    ]
    super_tiles: List[SuperTile] = []
    for st_index, block_coords in enumerate(
        itertools.product(*(range(b) for b in blocks_per_axis))
    ):
        tile_ids: List[int] = []
        ranges = []
        for axis, block_coord in enumerate(block_coords):
            start = block_coord * block_shape[axis]
            stop = min(start + block_shape[axis], counts[axis])
            ranges.append(range(start, stop))
        for grid_coords in itertools.product(*ranges):
            tile_ids.append(index.tile_id_at(grid_coords))
        tile_ids.sort()
        super_tiles.append(_build_super_tile(mdd, st_index, tile_ids))
    _validate_partition(mdd, super_tiles)
    return super_tiles


def _build_super_tile(mdd: MDD, st_index: int, tile_ids: List[int]) -> SuperTile:
    domain = mdd.tiles[tile_ids[0]].domain
    size = 0
    for tile_id in tile_ids:
        tile = mdd.tiles[tile_id]
        domain = domain.hull(tile.domain)
        size += tile.size_bytes
    return SuperTile(
        index=st_index,
        object_name=mdd.name,
        tile_ids=list(tile_ids),
        domain=domain,
        size_bytes=size,
    )


def _validate_partition(mdd: MDD, super_tiles: List[SuperTile]) -> None:
    seen: set = set()
    for super_tile in super_tiles:
        for tile_id in super_tile.tile_ids:
            if tile_id in seen:
                raise HeavenError(f"tile {tile_id} in two super-tiles")
            seen.add(tile_id)
    if seen != set(mdd.tiles):
        missing = set(mdd.tiles) - seen
        raise HeavenError(f"partition misses tiles {sorted(missing)[:5]}...")


def tiles_to_super_tiles(
    super_tiles: List[SuperTile],
) -> Dict[int, SuperTile]:
    """Reverse map tile id -> owning super-tile."""
    mapping: Dict[int, SuperTile] = {}
    for super_tile in super_tiles:
        for tile_id in super_tile.tile_ids:
            mapping[tile_id] = super_tile
    return mapping
