"""Removable media: allocation map and payload store of one tape/platter.

A :class:`Medium` is a linear byte space.  Named *segments* (HEAVEN writes
one segment per super-tile, the HSM one per file) are appended sequentially —
exactly how tape drives behave — and remembered in an extent map so later
reads can be costed by their physical position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..errors import MediumFullError, SegmentNotFoundError
from .profiles import TapeProfile


@dataclass(frozen=True)
class Segment:
    """One named extent on a medium."""

    name: str
    offset: int
    length: int

    @property
    def end(self) -> int:
        """First byte after the segment."""
        return self.offset + self.length


@dataclass
class BadSpot:
    """A damaged byte range on a medium.

    Reads overlapping the spot raise :class:`~repro.errors.MediaFaultError`
    (via the fault plan's ``media`` hook).  *Transient* spots heal after
    the first hit — a retry succeeds, modelling a recoverable soft error;
    permanent spots keep failing until the medium is replaced.
    """

    offset: int
    length: int
    transient: bool = True

    @property
    def end(self) -> int:
        return self.offset + self.length

    def overlaps(self, offset: int, length: int) -> bool:
        return offset < self.end and self.offset < offset + length


class Medium:
    """One removable medium (tape cartridge or optical platter).

    Data is append-only: segments are written at ``write_position`` which
    only moves forward.  Deleting a segment frees its name but, as on real
    tape, does not reclaim space until the medium is reformatted — HEAVEN's
    re-import path relies on this behaviour.

    A segment appended without payload bytes is *size-only*: it occupies
    its length, and :meth:`payload` returns None for it.

    Args:
        medium_id: unique identifier within the library.
        profile: drive technology whose capacity bounds this medium.
    """

    def __init__(self, medium_id: str, profile: TapeProfile) -> None:
        self.medium_id = medium_id
        self.profile = profile
        self.capacity = profile.media_capacity_bytes
        self.write_position = 0
        self.mount_count = 0
        self._segments: Dict[str, Segment] = {}
        self._order: List[str] = []
        self._payloads: Dict[str, bytes] = {}
        self._bad_spots: List[BadSpot] = []

    # -- capacity ----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        """Bytes consumed on the medium (including deleted segments)."""
        return self.write_position

    @property
    def free_bytes(self) -> int:
        return self.capacity - self.write_position

    def fits(self, nbytes: int) -> bool:
        return nbytes <= self.free_bytes

    # -- segment map -------------------------------------------------------

    def append(self, name: str, length: int, payload: Optional[bytes] = None) -> Segment:
        """Append a new segment of *length* bytes; returns its extent.

        Raises:
            MediumFullError: the segment does not fit.
            ValueError: the segment name is already present, or the payload
                length disagrees with *length*.
        """
        if name in self._segments:
            raise ValueError(f"segment {name!r} already on medium {self.medium_id}")
        if payload is not None and len(payload) != length:
            raise ValueError(
                f"payload length {len(payload)} != declared length {length}"
            )
        if not self.fits(length):
            raise MediumFullError(
                f"medium {self.medium_id}: segment {name!r} of {length} B does not "
                f"fit in {self.free_bytes} B free"
            )
        segment = Segment(name=name, offset=self.write_position, length=length)
        self._segments[name] = segment
        self._order.append(name)
        self.write_position += length
        if payload is not None:
            self._payloads[name] = payload
        return segment

    def segment(self, name: str) -> Segment:
        """Look up a segment by name."""
        try:
            return self._segments[name]
        except KeyError:
            raise SegmentNotFoundError(
                f"segment {name!r} not on medium {self.medium_id}"
            ) from None

    def has_segment(self, name: str) -> bool:
        return name in self._segments

    def delete(self, name: str) -> Segment:
        """Drop a segment from the map (space is not reclaimed)."""
        segment = self.segment(name)
        del self._segments[name]
        self._order.remove(name)
        self._payloads.pop(name, None)
        return segment

    def payload(self, name: str) -> Optional[bytes]:
        """Stored bytes of the segment, or None when it is size-only."""
        self.segment(name)  # raise if unknown
        return self._payloads.get(name)

    # -- media health --------------------------------------------------------

    def add_bad_spot(self, offset: int, length: int, transient: bool = True) -> BadSpot:
        """Register a damaged byte range (fault-injection hook target)."""
        if length < 1 or offset < 0 or offset + length > self.capacity:
            raise ValueError(
                f"bad spot [{offset}, {offset + length}) outside medium "
                f"{self.medium_id} of {self.capacity} B"
            )
        spot = BadSpot(offset=offset, length=length, transient=transient)
        self._bad_spots.append(spot)
        return spot

    def bad_spot_in(self, offset: int, length: int) -> Optional[BadSpot]:
        """First registered bad spot overlapping ``[offset, offset+length)``."""
        for spot in self._bad_spots:
            if spot.overlaps(offset, length):
                return spot
        return None

    def clear_bad_spot(self, spot: BadSpot) -> None:
        """Heal one bad spot (no-op if it is already gone)."""
        try:
            self._bad_spots.remove(spot)
        except ValueError:
            pass

    @property
    def bad_spots(self) -> List[BadSpot]:
        return list(self._bad_spots)

    def segments(self) -> List[Segment]:
        """All live segments in physical (append) order."""
        return [self._segments[n] for n in self._order]

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments())

    def __len__(self) -> int:
        return len(self._segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Medium({self.medium_id!r}, used={self.used_bytes}/{self.capacity}, "
            f"segments={len(self)})"
        )


@dataclass
class MediumStats:
    """Aggregated usage statistics for one medium (for reports)."""

    medium_id: str
    segments: int
    used_bytes: int
    capacity: int
    mount_count: int

    @classmethod
    def of(cls, medium: Medium) -> "MediumStats":
        return cls(
            medium_id=medium.medium_id,
            segments=len(medium),
            used_bytes=medium.used_bytes,
            capacity=medium.capacity,
            mount_count=medium.mount_count,
        )
