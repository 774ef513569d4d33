"""Automated tape library: media shelf + drives + robot behind one API.

This is the component HEAVEN talks to.  It hides drive selection and media
exchanges and exposes segment-level reads/writes whose *costs* follow the
profiles in :mod:`repro.tertiary.profiles`.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from ..errors import (
    DriveFaultError,
    FaultError,
    MediumFullError,
    MediumNotFoundError,
    RetryExhaustedError,
    SegmentNotFoundError,
    StorageError,
)
from ..faults import NO_FAULTS, RetryPolicy
from .clock import SimClock
from .drive import Drive
from .media import Medium, MediumStats, Segment
from .profiles import TapeProfile


@dataclass
class LibraryStats:
    """Snapshot of library-wide counters for benchmark reports."""

    media: int
    drives: int
    exchanges: int
    seeks: int
    seek_distance_bytes: int
    bytes_read: int
    bytes_written: int
    time_exchanging_s: float
    time_seeking_s: float
    time_transferring_s: float
    #: seconds drives spent waiting on the robot arm (parallel batches)
    time_robot_wait_s: float = 0.0
    #: LRU picks diverted off the drive holding a kept medium
    kept_mounts: int = 0


@dataclass
class RecoveryStats:
    """Counters of the library's fault-recovery layer."""

    retries: int = 0
    failovers: int = 0
    backoff_seconds: float = 0.0
    exhausted: int = 0


_D = TypeVar("_D")


def pick_drive(candidates: Sequence[_D]) -> _D:
    """The first free drive of *candidates*, else the least recently used.

    Works on anything with ``loaded`` and ``last_used`` (the parallel
    planner passes its simulated drives), so plan and library pick alike.
    """
    free = next((d for d in candidates if not d.loaded), None)
    return free if free is not None else min(candidates, key=lambda d: d.last_used)


class TapeLibrary:
    """An automated tertiary-storage system with one robot and N drives.

    Args:
        profile: drive/media technology for the whole library.
        num_drives: number of read/write stations sharing the robot.
        clock: shared virtual clock; one is created if omitted.
        faults: fault-injection plan shared by robot and drives (default:
            the inert :data:`~repro.faults.NO_FAULTS` plan).
        retry: recovery policy for faulted mounts and reads; only engaged
            when a fault actually fires, so fault-free runs are unchanged.
    """

    def __init__(
        self,
        profile: TapeProfile,
        num_drives: int = 1,
        clock: Optional[SimClock] = None,
        faults=None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        from .robot import Robot  # local import to avoid cycle in docs builds

        if num_drives < 1:
            raise ValueError("a library needs at least one drive")
        self.profile = profile
        self.clock = clock if clock is not None else SimClock()
        self.faults = faults if faults is not None else NO_FAULTS
        self.faults.bind(self.clock)
        self.retry = retry if retry is not None else RetryPolicy()
        self.recovery = RecoveryStats()
        uses = itertools.count(1)
        self.drives: List[Drive] = [
            Drive(f"drive-{i}", profile, self.clock, faults=self.faults, uses=uses)
            for i in range(num_drives)
        ]
        self.robot = Robot("robot-0", profile, self.clock, faults=self.faults)
        self._media: Dict[str, Medium] = {}
        self._media_order: List[str] = []
        self._id_counter = itertools.count()
        #: global directory segment name -> medium id (one copy per segment)
        self._directory: Dict[str, str] = {}
        #: medium whose drive mounts avoid while another is loaded
        self._kept: Optional[str] = None
        self._kept_mounts = 0

    # -- media management ----------------------------------------------------

    def new_medium(self, medium_id: Optional[str] = None) -> Medium:
        """Register a fresh medium on the shelf and return it."""
        if medium_id is None:
            medium_id = f"tape-{next(self._id_counter):04d}"
        if medium_id in self._media:
            raise ValueError(f"medium id {medium_id!r} already registered")
        medium = Medium(medium_id, self.profile)
        self._media[medium_id] = medium
        self._media_order.append(medium_id)
        return medium

    def medium(self, medium_id: str) -> Medium:
        try:
            return self._media[medium_id]
        except KeyError:
            raise MediumNotFoundError(f"unknown medium {medium_id!r}") from None

    def media(self) -> List[Medium]:
        """All registered media in registration order."""
        return [self._media[m] for m in self._media_order]

    def append_target(self, nbytes: int) -> Optional[str]:
        """The medium :meth:`allocate_medium` would append *nbytes* to, or
        None when none fits (it would register a new one).  Pure: media are
        filled in registration order (the natural archive append pattern)."""
        return next(
            (m for m in self._media_order if self._media[m].fits(nbytes)), None
        )

    def allocate_medium(self, nbytes: int) -> Medium:
        """Medium with >= *nbytes* free: :meth:`append_target`, else a
        new medium."""
        medium_id = self.append_target(nbytes)
        if medium_id is not None:
            return self._media[medium_id]
        if nbytes > self.profile.media_capacity_bytes:
            raise MediumFullError(
                f"segment of {nbytes} B exceeds media capacity "
                f"{self.profile.media_capacity_bytes} B"
            )
        return self.new_medium()

    # -- mounting ------------------------------------------------------------

    def mounted_drive(self, medium_id: str) -> Optional[Drive]:
        """Drive currently holding *medium_id*, if any."""
        for drive in self.drives:
            if drive.medium is not None and drive.medium.medium_id == medium_id:
                return drive
        return None

    def mount(self, medium_id: str, drive: Optional[Drive] = None) -> Drive:
        """Ensure the medium is in a drive; returns that drive.

        The medium goes to *drive* when one is named, else to the drive
        :meth:`drive_for` picks (a free drive, else the least recently used
        one, never the drive holding the :meth:`keep_mounted` medium while
        another is loaded); a loaded drive has its medium exchanged by the
        robot.  A medium already in a drive stays there: naming a
        *different* drive for it raises :class:`~repro.errors.StorageError`
        (media are indivisible).

        Injected faults engage the recovery layer: a failed attempt backs
        off per the :class:`~repro.faults.RetryPolicy` and is retried; a
        drive that rejected the load (mount failure) is excluded so the
        retry *fails over* to another drive — the returned drive is the one
        that took the medium.  When the retry budget is spent the last
        fault escalates to :class:`RetryExhaustedError`.
        """
        medium = self.medium(medium_id)
        holder = self.mounted_drive(medium_id)
        if holder is not None:
            if drive is None or holder is drive:
                return holder
            raise StorageError(
                f"medium {medium_id} is mounted in {holder.drive_id}, "
                f"cannot mount into {drive.drive_id}"
            )
        attempt = 0
        excluded: set = set()
        while True:
            if drive is not None and drive.drive_id not in excluded:
                target = drive
            else:
                target = self._pick_drive(excluded)
            try:
                self.robot.mount(medium, target)
                return target
            except FaultError as fault:
                attempt += 1
                if (
                    isinstance(fault, DriveFaultError)
                    and len(excluded) + 1 < len(self.drives)
                ):
                    excluded.add(target.drive_id)
                    self.recovery.failovers += 1
                if attempt >= self.retry.max_attempts:
                    self.recovery.exhausted += 1
                    raise RetryExhaustedError(
                        f"mount of {medium_id} failed after {attempt} attempts: "
                        f"{fault}"
                    ) from fault
                self._backoff(attempt, f"mount {medium_id}")

    def drive_for(self, medium_id: str, excluded: AbstractSet[str] = frozenset()) -> Drive:
        """The drive :meth:`mount` puts *medium_id* in: the drive holding it,
        else a free drive, else the least recently used one, never the kept
        append medium's drive while another is loaded.  Drives whose ids are
        in *excluded* are not picked while another one is left."""
        holder = self.mounted_drive(medium_id)
        return holder if holder is not None else self._pick_drive(excluded)

    @contextmanager
    def keep_mounted(self, medium_id: Optional[str]) -> Iterator[None]:
        """While active, mounts leave *medium_id*'s drive alone as long as
        another candidate drive is loaded: a preference, never a block (one
        drive, a medium on the shelf, or failover bans leaving only its
        drive all pick as without it).  Reads of the medium itself still go
        to its drive.  None keeps nothing."""
        previous, self._kept = self._kept, medium_id
        try:
            yield
        finally:
            self._kept = previous

    def _pick_drive(self, excluded: AbstractSet[str]) -> Drive:
        """Mount target: free drive first, then LRU, diverted off the kept
        medium's drive; honours failover bans."""
        candidates = [d for d in self.drives if d.drive_id not in excluded] or self.drives
        choice = pick_drive(candidates)
        if (
            len(candidates) > 1
            and choice.medium is not None
            and choice.medium.medium_id == self._kept
        ):
            # No free candidate is left, so every other one is loaded.
            self._kept_mounts += 1
            return pick_drive([d for d in candidates if d is not choice])
        return choice

    def _backoff(self, attempt: int, detail: str) -> None:
        """Charge one exponential-backoff delay before retry *attempt*."""
        delay = self.retry.delay(attempt)
        self.recovery.retries += 1
        self.recovery.backoff_seconds += delay
        if delay > 0:
            self.clock.charge(delay, "backoff", "library", detail=detail)

    def _with_read_retry(self, operation, detail: str):
        """Run a faultable read, retrying transient faults with backoff.

        Mount exhaustion inside *operation* already carries its own retry
        history and is passed through untouched.
        """
        attempt = 0
        while True:
            try:
                return operation()
            except RetryExhaustedError:
                raise
            except FaultError as fault:
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    self.recovery.exhausted += 1
                    raise RetryExhaustedError(
                        f"{detail} failed after {attempt} attempts: {fault}"
                    ) from fault
                self._backoff(attempt, detail)

    def unmount_all(self) -> None:
        """Return every loaded medium to the shelf (end-of-batch cleanup)."""
        for drive in self.drives:
            if drive.loaded:
                self.robot.dismount(drive)

    # -- segment I/O -----------------------------------------------------------

    def write_segment(
        self,
        name: str,
        length: int,
        payload: Optional[bytes] = None,
        medium_id: Optional[str] = None,
    ) -> Tuple[str, Segment]:
        """Append a named segment; returns ``(medium_id, segment)``.

        When *medium_id* is omitted the library picks (or creates) a medium
        via :meth:`allocate_medium`.
        """
        if name in self._directory:
            raise ValueError(f"segment {name!r} already stored in library")
        medium = (
            self.medium(medium_id) if medium_id is not None else self.allocate_medium(length)
        )
        drive = self.mount(medium.medium_id)
        segment = drive.append_segment(name, length, payload)
        self._directory[name] = medium.medium_id
        return medium.medium_id, segment

    def read_segment(self, name: str, medium_id: Optional[str] = None) -> Optional[bytes]:
        """Mount, position and stream the named segment; payload if retained.

        Transient media faults are retried with backoff (the drive re-reads
        the extent); persistent faults escalate to ``RetryExhaustedError``.
        """
        medium_id = medium_id or self.locate(name)
        return self._with_read_retry(
            lambda: self.mount(medium_id).read_segment(name),
            detail=f"read segment {name}",
        )

    def read_extent(self, medium_id: str, offset: int, length: int) -> None:
        """Stream a raw extent (used for whole-medium or multi-segment sweeps)."""
        self._with_read_retry(
            lambda: self.mount(medium_id).read_extent(offset, length),
            detail=f"read extent {medium_id}@{offset}",
        )

    def read_extent_on(self, drive: Drive, offset: int, length: int) -> None:
        """Stream a raw extent on a specific, already-mounted drive.

        The parallel executor mounts media into the drives it chose (via
        :meth:`mount`) and streams on that drive's timeline.  Transient
        faults retry with backoff exactly like the medium-addressed path.
        """
        self._with_read_retry(
            lambda: drive.read_extent(offset, length),
            detail=f"read extent {drive.drive_id}@{offset}",
        )

    def delete_segment(self, name: str) -> None:
        """Drop a segment from its medium's map and the directory."""
        medium_id = self.locate(name)
        self.medium(medium_id).delete(name)
        del self._directory[name]

    def locate(self, name: str) -> str:
        """Medium id holding segment *name*."""
        try:
            return self._directory[name]
        except KeyError:
            raise SegmentNotFoundError(f"segment {name!r} not in library") from None

    def has_segment(self, name: str) -> bool:
        return name in self._directory

    def segment(self, name: str) -> Tuple[str, Segment]:
        """``(medium_id, extent)`` of the named segment."""
        medium_id = self.locate(name)
        return medium_id, self.medium(medium_id).segment(name)

    # -- statistics ------------------------------------------------------------

    def stats(self) -> LibraryStats:
        """Aggregate robot and drive counters into one snapshot."""
        return LibraryStats(
            media=len(self._media),
            drives=len(self.drives),
            exchanges=self.robot.stats.exchanges,
            seeks=sum(d.stats.seeks for d in self.drives),
            seek_distance_bytes=sum(d.stats.seek_distance_bytes for d in self.drives),
            bytes_read=sum(d.stats.bytes_read for d in self.drives),
            bytes_written=sum(d.stats.bytes_written for d in self.drives),
            time_exchanging_s=self.robot.stats.time_s,
            time_seeking_s=sum(d.stats.time_seeking_s for d in self.drives),
            time_transferring_s=sum(d.stats.time_transferring_s for d in self.drives),
            time_robot_wait_s=self.robot.stats.wait_s,
            kept_mounts=self._kept_mounts,
        )

    def media_stats(self) -> List[MediumStats]:
        return [MediumStats.of(m) for m in self.media()]
