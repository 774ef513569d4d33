"""eSTAR — the extended Super-Tile Algorithm (Kapitel 3.2.3/3.2.4).

eSTAR extends STAR in three ways:

1. **Access-aware axis order.**  Collected query statistics say which axes
   queries tend to span widely (large fractional extent) and which they cut
   thinly.  Grouping tiles along the widely spanned axes puts co-accessed
   tiles into the same super-tile, so one tape positioning serves more of
   the query.
2. **Actual-size packing.**  STAR assumes uniform tile sizes; eSTAR uses the
   real byte sizes (edge tiles are smaller) when deciding how many tiles a
   super-tile takes.
3. **Automatic super-tile size** derived from the drive cost model: fetching
   a request of Q useful bytes spread over super-tiles of size S costs about
   ``(Q/S + 1) * (t_pos + S/r)``; minimising over S gives
   ``S* = sqrt(Q * t_pos * r)`` — the seek-amortisation vs. useless-bytes
   optimum the size-sweep experiment (E7) shows as a U-shaped curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..errors import HeavenError
from ..tertiary.profiles import TapeProfile
from .super_tile import SuperTile, star_partition


@dataclass
class AccessStatistics:
    """Per-axis summary of observed query regions on one object/schema.

    For every recorded query box the fractional extent per axis
    (box extent / domain extent) and the useful byte volume are kept as
    running sums, giving the two inputs eSTAR needs: the axis co-access
    profile and the expected request size.
    """

    dimension: int
    queries: int = 0
    fraction_sums: List[float] = field(default_factory=list)
    bytes_sum: float = 0.0

    def __post_init__(self) -> None:
        if not self.fraction_sums:
            self.fraction_sums = [0.0] * self.dimension

    def record(self, region: MInterval, domain: MInterval, cell_size: int) -> None:
        """Account one query *region* against the object *domain*."""
        if region.dimension != self.dimension or domain.dimension != self.dimension:
            raise HeavenError("access statistics dimensionality mismatch")
        self.queries += 1
        for axis in range(self.dimension):
            self.fraction_sums[axis] += (
                region[axis].extent / domain[axis].extent
            )
        self.bytes_sum += region.cell_count * cell_size

    def mean_fractions(self) -> List[float]:
        """Mean fractional extent per axis (1.0 = queries span whole axis)."""
        if self.queries == 0:
            return [1.0] * self.dimension
        return [s / self.queries for s in self.fraction_sums]

    def mean_request_bytes(self) -> Optional[float]:
        if self.queries == 0:
            return None
        return self.bytes_sum / self.queries

    def axis_order(self) -> List[int]:
        """Axes sorted by descending mean fraction (group co-accessed first).

        Ties fall back to the row-major default (innermost axis first),
        which is also the answer when no statistics exist yet.
        """
        fractions = self.mean_fractions()
        return sorted(
            range(self.dimension),
            key=lambda axis: (-fractions[axis], -axis),
        )


def optimal_super_tile_bytes(
    profile: TapeProfile,
    expected_request_bytes: float,
    min_bytes: int,
    max_bytes: int,
) -> int:
    """The cost-model optimum ``S* = sqrt(Q * t_pos * r)``, clamped.

    ``t_pos`` is the expected positioning time between two scheduled
    requests on the same medium.  With the elevator sweep of HEAVEN's
    scheduler the head moves monotonically, so the expected wind distance
    between consecutive requests is well under half the medium; we use half
    the profile's mean access time (which itself is the begin-to-middle
    wind) as the effective positioning cost.
    """
    if expected_request_bytes <= 0:
        raise HeavenError("expected request size must be positive")
    t_pos = profile.avg_seek_time_s / 2.0
    optimum = math.sqrt(expected_request_bytes * t_pos * profile.transfer_rate_bps)
    clamped = max(min_bytes, min(max_bytes, int(optimum)))
    # Never exceed one medium.
    return min(clamped, profile.media_capacity_bytes)


def estar_partition(
    mdd: MDD,
    profile: TapeProfile,
    stats: Optional[AccessStatistics] = None,
    target_bytes: Optional[int] = None,
    min_bytes: int = 8 * 1024 * 1024,
    max_bytes: int = 1024 * 1024 * 1024,
) -> List[SuperTile]:
    """eSTAR: access-aware, size-adaptive super-tile partitioning.

    Args:
        mdd: object to partition.
        profile: tape technology (drives the automatic size).
        stats: observed access statistics; None falls back to defaults.
        target_bytes: explicit size override; None = automatic.

    Returns:
        Super-tiles in cluster order.
    """
    if target_bytes is None:
        expected = None
        if stats is not None:
            expected = stats.mean_request_bytes()
        if expected is None:
            # No history: assume the paper's canonical 1-10 % selectivity —
            # use 5 % of the object as the expected request.
            expected = max(1.0, 0.05 * mdd.size_bytes)
        target_bytes = optimal_super_tile_bytes(profile, expected, min_bytes, max_bytes)
    axis_order = None
    if stats is not None and stats.dimension == mdd.dimension:
        axis_order = stats.axis_order()
    return star_partition(mdd, target_bytes, axis_order=axis_order)


def intra_cluster_order(
    super_tile: SuperTile,
    mdd: MDD,
    stats: Optional[AccessStatistics] = None,
) -> List[int]:
    """Intra-super-tile clustering: byte order of tiles inside the segment.

    Tiles are sorted lexicographically with the *thinly cut* axes as the
    primary key and the widely spanned (co-accessed) axes varying fastest.
    A query that spans the wide axes but picks few values on the thin axes
    then selects a few complete "bands" of the segment — short contiguous
    runs instead of a scatter across the whole segment (Kapitel 3.3.2).
    Without statistics the row-major default (tile-id order) is kept.
    """
    if stats is None or stats.dimension != mdd.dimension:
        return sorted(super_tile.tile_ids)
    order = stats.axis_order()  # most co-accessed first
    # Primary sort key = thin axes (vary slowest); wide axes last (fastest).
    key_axes = list(reversed(order))

    def key(tile_id: int) -> tuple:
        origin = mdd.tiles[tile_id].domain.origin
        return tuple(origin[axis] for axis in key_axes)

    return sorted(super_tile.tile_ids, key=key)
