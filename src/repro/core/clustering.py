"""Inter-super-tile clustering: placing super-tiles on media (Kapitel 3.3).

Where super-tiles land decides how many media exchanges a query pays.
HEAVEN's clustered placement writes consecutive super-tiles (which are
spatial neighbours, thanks to STAR's cluster order) contiguously onto as few
media as possible.  The scatter baseline round-robins them across media —
the behaviour of a naive archive writing whatever drive is free — and is
what the clustering experiment (E8) compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import HeavenError
from ..tertiary.library import TapeLibrary
from .super_tile import SuperTile


@dataclass(frozen=True)
class Placement:
    """One planned write: which medium a super-tile goes to.

    ``medium_id`` of None lets the library pick its current fill target
    (sequential clustered filling).
    """

    super_tile: SuperTile
    medium_id: Optional[str]


class PlacementPolicy:
    """Strategy assigning super-tiles to media before export."""

    name = "abstract"

    def plan(
        self, super_tiles: Sequence[SuperTile], library: TapeLibrary
    ) -> List[Placement]:
        raise NotImplementedError


class ClusteredPlacement(PlacementPolicy):
    """HEAVEN's default: fill media sequentially in cluster order.

    Neighbouring super-tiles share a medium and sit back-to-back, so a
    query touching k consecutive super-tiles pays at most
    ``1 + k*size/capacity`` exchanges and short forward winds.
    """

    name = "clustered"

    def plan(
        self, super_tiles: Sequence[SuperTile], library: TapeLibrary
    ) -> List[Placement]:
        return [Placement(st, None) for st in super_tiles]


class ScatterPlacement(PlacementPolicy):
    """Baseline: round-robin super-tiles across *spread* media.

    Models an unclustered archive; consecutive super-tiles live on
    different media, so even small queries force many exchanges.
    """

    name = "scatter"

    def __init__(self, spread: int = 4) -> None:
        if spread < 1:
            raise HeavenError("scatter spread must be >= 1")
        self.spread = spread

    def plan(
        self, super_tiles: Sequence[SuperTile], library: TapeLibrary
    ) -> List[Placement]:
        if not super_tiles:
            return []
        total = sum(st.size_bytes for st in super_tiles)
        capacity = library.profile.media_capacity_bytes
        spread = self.spread
        # Make sure the round-robin set can hold everything.
        while spread * capacity < total:
            spread += 1
        media = [library.new_medium() for _ in range(spread)]
        placements: List[Placement] = []
        fill = [0] * spread
        for position, super_tile in enumerate(super_tiles):
            target = position % spread
            # Skip media that ran out of space (rare; spread was sized above).
            attempts = 0
            while fill[target] + super_tile.size_bytes > capacity:
                target = (target + 1) % spread
                attempts += 1
                if attempts > spread:
                    media.append(library.new_medium())
                    fill.append(0)
                    spread += 1
                    target = spread - 1
                    break
            fill[target] += super_tile.size_bytes
            placements.append(Placement(super_tile, media[target].medium_id))
        return placements

