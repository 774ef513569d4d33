"""Tape/optical drive model: load, position, stream, with full cost tracking.

The drive is where the paper's dominant latencies live: media exchange
(12-40 s) and positioning (mean 27-95 s).  Every operation charges the shared
:class:`~repro.tertiary.clock.SimClock` and updates per-drive counters so the
benchmarks can attribute total time to mounts, seeks and transfers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import StorageError
from ..faults import NO_FAULTS
from .clock import SimClock, Timeline
from .media import Medium, Segment
from .profiles import TapeProfile


@dataclass
class DriveStats:
    """Cumulative operation counters of one drive."""

    loads: int = 0
    unloads: int = 0
    seeks: int = 0
    seek_distance_bytes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    time_loading_s: float = 0.0
    time_seeking_s: float = 0.0
    time_transferring_s: float = 0.0

    @property
    def busy_time_s(self) -> float:
        return self.time_loading_s + self.time_seeking_s + self.time_transferring_s


class Drive:
    """One read/write station of the tape library.

    The head position is tracked in bytes from the physical beginning of the
    loaded medium.  Seeks are charged linearly in wind distance (see
    :meth:`TapeProfile.seek_time`), reads and writes move the head to the end
    of the accessed extent, and tape drives rewind before unloading.
    """

    def __init__(
        self,
        drive_id: str,
        profile: TapeProfile,
        clock: SimClock,
        faults=NO_FAULTS,
        uses: Optional[Iterator[int]] = None,
    ) -> None:
        self.drive_id = drive_id
        self.profile = profile
        self.clock = clock
        self.faults = faults if faults is not None else NO_FAULTS
        self.medium: Optional[Medium] = None
        self.head_position = 0
        self.stats = DriveStats()
        #: operation counter shared by the library's drives
        self._uses = uses if uses is not None else itertools.count(1)
        #: the counter's value at this drive's last operation (0: never
        #: used); the LRU drive pick ranks by it, so recency follows the
        #: order operations were issued in, not the timelines they ran on
        self.last_used = 0
        #: private timeline used by the parallel executor (lazily created)
        self.timeline: Optional[Timeline] = None

    def timeline_at(self, start: float) -> Timeline:
        """This drive's :class:`Timeline`, rebased to *start* for a new batch."""
        if self.timeline is None:
            self.timeline = Timeline.at(self.drive_id, start)
        else:
            self.timeline.rebase(start)
        return self.timeline

    # -- medium handling ---------------------------------------------------

    @property
    def loaded(self) -> bool:
        return self.medium is not None

    def load(self, medium: Medium) -> None:
        """Thread *medium* into the drive (drive-internal load time only).

        The robot's exchange time is charged separately by the
        :class:`~repro.tertiary.robot.Robot`; this method charges the
        drive-internal load/thread cost and resets the head to position 0.
        """
        if self.loaded:
            raise StorageError(
                f"drive {self.drive_id} already holds {self.medium.medium_id}"
            )
        # Fault hook: an injected mount failure raises before any state or
        # load time is committed (the exchange time already spent stands).
        self.faults.on_drive_load(self.drive_id, medium.medium_id)
        cost = self.profile.load_time_s
        self.clock.charge(cost, "load", self.drive_id, detail=medium.medium_id)
        self.medium = medium
        self.head_position = 0
        medium.mount_count += 1
        self.stats.loads += 1
        self.stats.time_loading_s += cost
        self.last_used = next(self._uses)

    def unload(self) -> Medium:
        """Eject the loaded medium, rewinding first if the profile needs it."""
        medium = self._require_medium()
        if self.profile.rewind_before_unload and self.head_position > 0:
            self._seek_to(0, reason="rewind")
        self.medium = None
        self.stats.unloads += 1
        self.last_used = next(self._uses)
        return medium

    # -- positioning and transfer -------------------------------------------

    def seek(self, offset: int) -> float:
        """Position the head at byte *offset*; returns seconds charged."""
        medium = self._require_medium()
        if not 0 <= offset <= medium.capacity:
            raise StorageError(
                f"seek offset {offset} outside medium {medium.medium_id} "
                f"(capacity {medium.capacity})"
            )
        return self._seek_to(offset, reason="seek")

    def read_segment(self, name: str) -> Optional[bytes]:
        """Seek to the named segment and stream it; returns payload if kept."""
        medium = self._require_medium()
        segment = medium.segment(name)
        self._seek_to(segment.offset, reason="seek")
        self.faults.on_media_read(medium, segment.offset, segment.length, self.drive_id)
        self._transfer(segment.length, writing=False, detail=name)
        return medium.payload(name)

    def read_extent(self, offset: int, length: int) -> None:
        """Seek to *offset* and stream *length* raw bytes (no payload)."""
        medium = self._require_medium()
        self._seek_to(offset, reason="seek")
        self.faults.on_media_read(medium, offset, length, self.drive_id)
        self._transfer(length, writing=False, detail=f"extent@{offset}")

    def append_segment(
        self, name: str, length: int, payload: Optional[bytes] = None
    ) -> Segment:
        """Append a segment at the medium's write position and stream it.

        Every discrete append pays the profile's stop/start penalty (the
        drive leaves streaming mode between segments), so many small
        appends are disproportionately expensive — the behaviour HEAVEN's
        super-tile export exploits.
        """
        medium = self._require_medium()
        self._seek_to(medium.write_position, reason="seek")
        segment = medium.append(name, length, payload)
        penalty = self.profile.stop_start_penalty_s
        if penalty > 0:
            self.clock.charge(penalty, "settle", self.drive_id, detail=name)
            self.stats.time_seeking_s += penalty
        self._transfer(length, writing=True, detail=name)
        return segment

    # -- internals ---------------------------------------------------------

    def _require_medium(self) -> Medium:
        if self.medium is None:
            raise StorageError(f"drive {self.drive_id} has no medium loaded")
        return self.medium

    def _seek_to(self, offset: int, reason: str) -> float:
        distance = abs(offset - self.head_position)
        if distance == 0:
            return 0.0
        cost = self.profile.seek_time(distance)
        self.clock.charge(
            cost,
            reason,
            self.drive_id,
            detail=f"{self.head_position}->{offset}",
        )
        self.head_position = offset
        self.stats.seeks += 1
        self.stats.seek_distance_bytes += distance
        self.stats.time_seeking_s += cost
        self.last_used = next(self._uses)
        return cost

    def _transfer(self, nbytes: int, writing: bool, detail: str) -> float:
        # Fault hook: a drive stall charges extra "fault" seconds but the
        # stream still completes — stalls degrade latency, not correctness.
        self.faults.on_transfer(self.drive_id, nbytes)
        cost = self.profile.transfer_time(nbytes)
        kind = "write" if writing else "read"
        self.clock.charge(cost, kind, self.drive_id, detail=detail, nbytes=nbytes)
        self.head_position += nbytes
        if writing:
            self.stats.bytes_written += nbytes
        else:
            self.stats.bytes_read += nbytes
        self.stats.time_transferring_s += cost
        self.last_used = next(self._uses)
        return cost

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        held = self.medium.medium_id if self.medium is not None else "-"
        return f"Drive({self.drive_id!r}, medium={held}, head={self.head_position})"
