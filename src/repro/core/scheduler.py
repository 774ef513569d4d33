"""Query scheduling over tertiary storage (Kapitel 3.4.3 / 3.7.3).

Tape requests of one or many queries are reordered before execution:

1. **media grouping** — all requests on one medium run together, so each
   medium is exchanged at most once per batch;
2. **elevator sweep** — within a medium, requests run in ascending offset
   order, so the head winds forward monotonically instead of bouncing.

The FIFO scheduler keeps arrival order — the baseline the scheduling
experiment (E9) compares against.

The :class:`ParallelExecutor` is the one runner that streams a batch: the
serial schedule, overlapped.  It runs the requests in the order it is
given, each medium visit on the drive the serial loop would use, each
drive making the serial loop's moves on its own
:class:`~repro.tertiary.clock.Timeline`; the robot arm serves one exchange
at a time, in schedule order, and the global clock advances once, to the
max of the device timelines — the batch makespan.  The executor checks
every visit's executed service time against the cost model
(:func:`_visit_seconds`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import HeavenError
from ..obs.trace import null_tracer
from ..tertiary.clock import Timeline
from ..tertiary.drive import Drive
from ..tertiary.library import TapeLibrary
from ..tertiary.profiles import TapeProfile


@dataclass(frozen=True)
class TapeRequest:
    """One pending tertiary-storage read.

    Attributes:
        key: segment (super-tile) name to stage.
        medium_id: medium holding the segment.
        offset: absolute byte position of the requested run on the medium.
        length: bytes to stream.
        query_ids: the queries whose bytes these are — one for a demand of
            one query, several for a request fused across queries (empty
            for a prefetch or a request outside any query).
    """

    key: str
    medium_id: str
    offset: int
    length: int
    query_ids: Tuple[int, ...] = ()


def split_shared_bytes(length: int, query_ids: Sequence[int]) -> Dict[int, int]:
    """Split *length* bytes exactly across *query_ids* without double counting.

    Deterministic: queries are sorted, each receives ``length // n`` and the
    first ``length % n`` (in id order) one byte more, so the shares always
    sum to *length* — the invariant the shared-stage reconciliation tests
    pin down.
    """
    ids = sorted(set(query_ids))
    if not ids:
        return {}
    base, extra = divmod(length, len(ids))
    return {qid: base + (1 if index < extra else 0) for index, qid in enumerate(ids)}


def attribute_request_bytes(
    requests: Sequence[TapeRequest],
) -> Dict[int, int]:
    """Per-query byte shares of a (possibly cross-query fused) batch."""
    totals: Dict[int, int] = {}
    for request in requests:
        for qid, share in split_shared_bytes(request.length, request.query_ids).items():
            totals[qid] = totals.get(qid, 0) + share
    return totals


class Scheduler:
    """Base class: turns a request batch into an execution order."""

    def order(
        self, requests: Sequence[TapeRequest], library: TapeLibrary
    ) -> List[TapeRequest]:
        raise NotImplementedError


class FIFOScheduler(Scheduler):
    """Arrival-order execution (no optimisation)."""

    def order(
        self, requests: Sequence[TapeRequest], library: TapeLibrary
    ) -> List[TapeRequest]:
        return list(requests)


class ElevatorScheduler(Scheduler):
    """HEAVEN's scheduler: group by medium, sweep by offset.

    Media order: a currently mounted medium first (no exchange to start),
    then descending request count so densest media amortise their exchange
    best when a batch is cut short.
    """

    def order(
        self, requests: Sequence[TapeRequest], library: TapeLibrary
    ) -> List[TapeRequest]:
        by_medium: Dict[str, List[TapeRequest]] = {}
        for request in requests:
            by_medium.setdefault(request.medium_id, []).append(request)
        mounted = {
            drive.medium.medium_id
            for drive in library.drives
            if drive.medium is not None
        }

        def medium_rank(medium_id: str) -> tuple:
            return (
                0 if medium_id in mounted else 1,
                -len(by_medium[medium_id]),
                medium_id,
            )

        ordered: List[TapeRequest] = []
        for medium_id in sorted(by_medium, key=medium_rank):
            ordered.extend(sorted(by_medium[medium_id], key=lambda r: r.offset))
        return ordered


# -- cost model (the executor checks every visit against it) ----------------


def _visits(ordered: Sequence[TapeRequest]) -> List[Tuple[str, List[TapeRequest]]]:
    """The schedule's medium visits: runs of consecutive same-medium requests.

    An elevator order visits each medium once; a FIFO order may come back.
    """
    visits: List[Tuple[str, List[TapeRequest]]] = []
    for request in ordered:
        if visits and visits[-1][0] == request.medium_id:
            visits[-1][1].append(request)
        else:
            visits.append((request.medium_id, [request]))
    return visits


def _sweep_seconds(
    profile: TapeProfile, requests: Sequence[TapeRequest], head: int
) -> float:
    """Seconds to stream *requests* in order starting at *head*.  One
    seek+stream per request, as the drive charges them."""
    seconds = 0.0
    for request in requests:
        seconds += profile.seek_time(abs(request.offset - head))
        seconds += profile.transfer_time(request.length)
        head = request.offset + request.length
    return seconds


def _mount_seconds(
    profile: TapeProfile, loaded: Optional[str], head: int
) -> float:
    """Seconds to swap a drive onto a new medium from state (loaded, head).

    Mirrors :meth:`Robot.mount` + :meth:`Drive.load`: rewind the old medium
    if the technology demands it, stow it (half an exchange for the return
    trip), fetch the new one (a full exchange) and thread it.
    """
    seconds = 0.0
    if loaded is not None:
        if profile.rewind_before_unload and head > 0:
            seconds += profile.seek_time(head)
        seconds += profile.exchange_time_s * 0.5
    seconds += profile.exchange_time_s
    seconds += profile.load_time_s
    return seconds


def _visit_seconds(
    profile: TapeProfile, drive: Drive, medium_id: str, requests: Sequence[TapeRequest]
) -> float:
    """Service seconds the cost model expects for *drive* to serve a visit
    of *requests* on *medium_id* from its current state (no waits).

    Derived from the profile, not from the devices: the executor's
    reference for what the visit it just ran should have cost."""
    loaded = drive.medium.medium_id if drive.medium is not None else None
    if loaded == medium_id:
        return _sweep_seconds(profile, requests, drive.head_position)
    return (
        _mount_seconds(profile, loaded, drive.head_position)
        + _sweep_seconds(profile, requests, 0)
    )


#: per-medium estimator tolerance: executed service may deviate this much
ESTIMATE_TOLERANCE = 0.10

#: event kinds that mark a window as fault-afflicted (estimates don't apply)
_FAULT_KINDS = frozenset({"fault", "backoff"})


def _check_estimate(
    medium_id: str,
    planned: float,
    events,
    devices: AbstractSet[str],
) -> Optional[float]:
    """Relative drift of executed vs planned service for one medium.

    Returns None when no meaningful comparison exists (zero-cost plan or a
    fault/backoff inside the window — recovery time is rightly absent from
    the estimate).  Raises :class:`HeavenError` naming the medium beyond
    :data:`ESTIMATE_TOLERANCE`: a cost model that disagrees with the
    devices is a bug, not a warning.
    """
    if planned <= 0:
        return None
    actual = 0.0  # charged service seconds of *devices* (no waits)
    for event in events:
        if event.kind in _FAULT_KINDS:
            return None
        if event.device in devices and event.kind != "robot-wait":
            actual += event.duration
    drift = abs(actual - planned) / planned
    if drift > ESTIMATE_TOLERANCE:
        raise HeavenError(
            f"medium cost estimate drifted {drift:.1%} on {medium_id}: "
            f"planned {planned:.3f}s, executed {actual:.3f}s"
        )
    return drift


# -- execution (Kapitel 3.7.3) ------------------------------------------------


@dataclass
class DriveShare:
    """Executed share of one drive in a parallel batch."""

    drive_id: str
    media: List[str] = field(default_factory=list)
    requests: int = 0
    busy_seconds: float = 0.0
    wait_seconds: float = 0.0


@dataclass
class ParallelReport:
    """Cost report of one executed batch.

    ``virtual_seconds`` is the batch makespan (the global clock advances
    by exactly that much), ``serial_device_seconds`` the total device work
    (every charged second but robot-arm waits), and their ratio the
    *executed* speedup; on one drive nothing overlaps, so the two agree.
    ``order`` lists the served requests' keys in the order they ran.
    """

    requests: int = 0
    exchanges: int = 0
    seeks: int = 0
    seek_distance_bytes: int = 0
    bytes_read: int = 0
    virtual_seconds: float = 0.0
    serial_device_seconds: float = 0.0
    order: List[str] = field(default_factory=list)
    media: int = 0
    drives: List[DriveShare] = field(default_factory=list)
    robot_wait_seconds: float = 0.0
    assembly_seconds: float = 0.0
    estimate_drift: float = 0.0

    @property
    def makespan_seconds(self) -> float:
        return self.virtual_seconds

    @property
    def speedup(self) -> float:
        """Executed speedup: total device work over wall-clock makespan."""
        if self.virtual_seconds <= 0:
            return 1.0
        return self.serial_device_seconds / self.virtual_seconds


class ParallelExecutor:
    """Discrete-event execution of a batch across the library's drives:
    the serial schedule, overlapped.

    The batch runs in the order it is given (a caller that wants the
    elevator sweep orders it first), and every medium visit goes to the
    drive the serial loop would use (:meth:`TapeLibrary.drive_for`: the
    holder, else a free drive, else the least recently used one, never
    the kept append medium's drive while another is loaded), so the drives
    make exactly the mounts, seeks and reads of ``library.read_extent``
    called request by request.  Only the timing differs: each drive
    charges its own :class:`Timeline`, the robot arm serves exchanges in
    schedule order via its ``free_at`` horizon, and after the batch the
    global clock advances once, to the max of the timelines — the batch
    makespan.  Every operation ends no later than it would in the serial
    loop.

    ``on_staged(request)`` lands each streamed request on a separate
    assembly timeline, in request order, each no earlier than its drive
    finished streaming it — so the disk cache sees the serial loop's
    insertions, while landing overlaps the drives streaming on.

    Every visit's executed service time is validated against the cost
    model's estimate for it (:func:`_visit_seconds`), made from the
    drive's state just before the visit (fault windows excluded); drift
    beyond :data:`ESTIMATE_TOLERANCE` raises.
    """

    def __init__(self, library: TapeLibrary, tracer=None) -> None:
        self.library = library
        self.tracer = tracer if tracer is not None else null_tracer

    def execute(
        self,
        requests: Sequence[TapeRequest],
        on_staged: Optional[Callable[[TapeRequest], None]] = None,
    ) -> ParallelReport:
        """Serve *requests* across the drives; returns the executed report."""
        if not requests:
            return ParallelReport()
        library = self.library
        clock = library.clock
        if clock.active_timeline is not None:
            raise HeavenError("parallel batches cannot nest inside a timeline")
        # The global clock is monotone, so at batch start the arm cannot be
        # busy in the future; a stale horizon (clock reset since the last
        # exchange) would otherwise charge phantom waits on the timelines.
        robot = library.robot
        if robot.free_at > clock.now:
            robot.free_at = clock.now
        visits = _visits(requests)
        start = clock.now
        timelines = {d.drive_id: d.timeline_at(start) for d in library.drives}
        assembly = Timeline.at("assembly", start)
        before = _tape_counters(library)
        order: List[str] = []
        shares: Dict[str, DriveShare] = {}
        drift = 0.0
        with self.tracer.span(
            "scheduler.parallel",
            drives=len(library.drives),
            media=len(visits),
            requests=len(requests),
        ):
            try:
                for medium_id, visit in visits:
                    drive, visit_drift = self._serve(
                        medium_id, visit, timelines, assembly, on_staged
                    )
                    order.extend(request.key for request in visit)
                    share = shares.get(drive.drive_id)
                    if share is None:
                        share = shares[drive.drive_id] = DriveShare(drive.drive_id)
                    share.media.append(medium_id)
                    share.requests += len(visit)
                    if visit_drift is not None and visit_drift > drift:
                        drift = visit_drift
            finally:
                # The batch is over when the slowest timeline finishes —
                # including the assembly tail still landing staged data.
                clock.sync_to([*timelines.values(), assembly])
        exchanges, seeks, distance, bytes_read, robot_wait = (
            after - prior for after, prior in zip(_tape_counters(library), before)
        )
        for drive_id, share in shares.items():
            share.busy_seconds = timelines[drive_id].busy_seconds
            share.wait_seconds = timelines[drive_id].wait_seconds
        return ParallelReport(
            requests=len(requests),
            exchanges=exchanges,
            seeks=seeks,
            seek_distance_bytes=distance,
            bytes_read=bytes_read,
            virtual_seconds=clock.now - start,
            serial_device_seconds=(
                sum(t.busy_seconds for t in timelines.values())
                + assembly.busy_seconds
            ),
            order=order,
            media=len({medium_id for medium_id, _visit in visits}),
            drives=[shares[d.drive_id] for d in library.drives if d.drive_id in shares],
            robot_wait_seconds=robot_wait,
            assembly_seconds=assembly.elapsed,
            estimate_drift=drift,
        )

    def _serve(
        self,
        medium_id: str,
        visit: Sequence[TapeRequest],
        timelines: Dict[str, Timeline],
        assembly: Timeline,
        on_staged: Optional[Callable[[TapeRequest], None]],
    ) -> Tuple[Drive, Optional[float]]:
        """Mount *medium_id* where the serial loop would, then stream and
        land *visit* request by request on that drive's timeline.

        Returns the drive and the visit's estimate drift: its service
        seconds against the cost model's, estimated from the drive's state
        just before the visit (see :func:`_check_estimate`).
        """
        library, clock = self.library, self.library.clock
        drive = library.drive_for(medium_id)
        planned = _visit_seconds(library.profile, drive, medium_id, visit)
        window_start = clock.log.cursor()
        timeline = timelines[drive.drive_id]
        with clock.timeline(timeline):
            took = library.mount(medium_id, drive)
        if took is not drive:  # the load failed over: go on where it landed
            drive = took
            _catch_up(timelines[drive.drive_id], timeline.now)
            timeline = timelines[drive.drive_id]
        with clock.timeline(timeline):
            for request in visit:
                library.read_extent_on(drive, request.offset, request.length)
                if on_staged is not None:
                    # The run lands the instant its drive finished streaming
                    # it (or once earlier runs have landed) while the drive
                    # seeks on.
                    _catch_up(assembly, timeline.now)
                    with clock.timeline(assembly):
                        on_staged(request)
        return drive, _check_estimate(
            medium_id,
            planned,
            clock.log.window(window_start, clock.log.cursor()),
            {drive.drive_id, library.robot.robot_id},
        )


def _tape_counters(library: TapeLibrary) -> Tuple[int, int, int, int, float]:
    """Exchanges, seeks, seek distance, bytes read and robot-wait seconds so
    far: the counters a :class:`ParallelReport` reports the deltas of."""
    seeks = distance = bytes_read = 0
    for drive in library.drives:
        seeks += drive.stats.seeks
        distance += drive.stats.seek_distance_bytes
        bytes_read += drive.stats.bytes_read
    robot = library.robot.stats
    return robot.exchanges, seeks, distance, bytes_read, robot.wait_s


def _catch_up(timeline: Timeline, now: float) -> None:
    """Hold *timeline* until *now*: the idle span counts as waiting, so its
    ``busy_seconds`` stay the seconds charged on it."""
    if timeline.now < now:
        timeline.wait_seconds += now - timeline.now
        timeline.now = now
