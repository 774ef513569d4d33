"""Query scheduling over tertiary storage (Kapitel 3.4.3 / 3.7.3).

Tape requests of one or many queries are reordered before execution:

1. **media grouping** — all requests on one medium run together, so each
   medium is exchanged at most once per batch;
2. **elevator sweep** — within a medium, requests run in ascending offset
   order, so the head winds forward monotonically instead of bouncing;
3. **run coalescing** — forward-adjacent or overlapping extents merge into
   one seek+stream, so a sweep over back-to-back segments never leaves
   streaming mode.

The FIFO scheduler executes requests in arrival order — the baseline the
scheduling experiment (E9) compares against.

Multi-drive batches run through the :class:`ParallelExecutor`: the serial
schedule, overlapped.  Each medium visit goes to the drive the serial loop
would use and each drive makes the serial loop's moves in its order, but on
its own :class:`~repro.tertiary.clock.Timeline`; the robot arm serves one
exchange at a time, in schedule order, and the global clock advances once,
to the max of the device timelines — the batch makespan.
:func:`plan_parallel` makes the *same* moves over the same cost model
without touching devices, so its estimate and the executed makespan agree
by construction; the executor checks every visit's executed service time
against that cost model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import HeavenError
from ..obs.trace import null_tracer
from ..tertiary.clock import Stopwatch, Timeline
from ..tertiary.drive import Drive
from ..tertiary.library import TapeLibrary, pick_drive
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


@dataclass
class ScheduleReport:
    """Cost summary of one executed batch.

    ``virtual_seconds`` is measured with a :class:`Stopwatch` on the global
    clock — under parallel execution that is the batch *makespan*, not the
    work done.  ``serial_device_seconds`` sums every charged device second
    in the batch's event-log window (excluding time spent waiting for the
    robot arm, which does not exist in a serial execution), so scheduler
    comparisons like E9 keep ranking on total work.
    """

    requests: int = 0
    exchanges: int = 0
    seeks: int = 0
    seek_distance_bytes: int = 0
    bytes_read: int = 0
    virtual_seconds: float = 0.0
    serial_device_seconds: float = 0.0
    order: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class CoalescedRun:
    """One physical seek+stream covering one or more adjacent requests."""

    medium_id: str
    offset: int
    length: int
    requests: Tuple[TapeRequest, ...]

    @property
    def end(self) -> int:
        return self.offset + self.length


def coalesce_requests(ordered: Sequence[TapeRequest]) -> List[CoalescedRun]:
    """Merge forward-adjacent/overlapping extents into single streamed runs.

    Only *consecutive* requests on the same medium whose extent starts
    inside or immediately after the accumulated run are merged: an
    ascending elevator sweep over back-to-back segments coalesces into one
    seek+stream, while a FIFO order that happens to visit adjacent blocks
    backwards keeps paying every seek (the baseline stays honest — it
    would need the scheduler's sort to benefit).
    """
    runs: List[CoalescedRun] = []
    for request in ordered:
        last = runs[-1] if runs else None
        if (
            last is not None
            and request.medium_id == last.medium_id
            and last.offset <= request.offset <= last.end
        ):
            runs[-1] = CoalescedRun(
                medium_id=last.medium_id,
                offset=last.offset,
                length=max(last.end, request.offset + request.length) - last.offset,
                requests=last.requests + (request,),
            )
        else:
            runs.append(
                CoalescedRun(
                    medium_id=request.medium_id,
                    offset=request.offset,
                    length=request.length,
                    requests=(request,),
                )
            )
    return runs


class Scheduler:
    """Base class: turns a request batch into an execution order."""

    name = "abstract"

    def order(
        self, requests: Sequence[TapeRequest], library: TapeLibrary
    ) -> List[TapeRequest]:
        raise NotImplementedError


class FIFOScheduler(Scheduler):
    """Arrival-order execution (no optimisation)."""

    name = "fifo"

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

    name = "elevator"

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


@dataclass
class DrivePlan:
    """One drive's share of a parallel batch."""

    drive_index: int
    media: List[str] = field(default_factory=list)
    requests: List[TapeRequest] = field(default_factory=list)
    busy_seconds: float = 0.0
    wait_seconds: float = 0.0


@dataclass
class ParallelPlan:
    """Makespan analysis of a batch spread over several drives.

    The plan runs the serial schedule — the batch in scheduler order, each
    medium visit on the drive :meth:`TapeLibrary.mount` would pick — over
    the profile's cost model (exchange, load, seeks including the rewind
    before every stow, transfers) with one timeline per drive and the robot
    arm serving exchanges in schedule order, without touching any device.
    On a fault-free run the :class:`ParallelExecutor` makes exactly these
    moves, so its makespan matches the plan.  ``serial_seconds`` is the
    same schedule run one operation at a time (the sum of the service
    seconds); ``makespan_seconds`` the longest drive timeline.
    """

    drives: List[DrivePlan]
    serial_seconds: float
    makespan_seconds: float
    #: planned total seconds drives spend waiting on the robot arm
    robot_wait_seconds: float = 0.0


# -- shared cost model (planner and executor make the same moves) ------------


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
) -> Tuple[float, int]:
    """Seconds to stream *requests* in order starting at *head*; returns the
    end head.  One seek+stream per request, as the drive charges them."""
    seconds = 0.0
    for request in requests:
        seconds += profile.seek_time(abs(request.offset - head))
        seconds += profile.transfer_time(request.length)
        head = request.offset + request.length
    return seconds, head


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
    of *requests* on *medium_id* from its current state (no waits)."""
    loaded = drive.medium.medium_id if drive.medium is not None else None
    if loaded == medium_id:
        return _sweep_seconds(profile, requests, drive.head_position)[0]
    return (
        _mount_seconds(profile, loaded, drive.head_position)
        + _sweep_seconds(profile, requests, 0)[0]
    )


@dataclass(eq=False)
class _SimDrive:
    """Planner-side mirror of one drive's state and timeline."""

    medium: Optional[str]
    head: int
    now: float
    last_used: int
    busy: float = 0.0
    wait: float = 0.0
    media: List[str] = field(default_factory=list)
    requests: List[TapeRequest] = field(default_factory=list)

    @property
    def loaded(self) -> bool:
        return self.medium is not None


def plan_parallel(
    requests: Sequence[TapeRequest],
    library: TapeLibrary,
    num_drives: int,
) -> ParallelPlan:
    """Plan a batch on *num_drives* drives and compute its makespan.

    The batch is ordered as the :class:`ParallelExecutor` orders it (by the
    :class:`ElevatorScheduler`), then its serial schedule is run over the
    cost model with one timeline per drive.  The stations are the library's
    first *num_drives* drives, then free what-if stations beyond the
    hardware (the executor itself is capped by it).  A medium already in a
    drive is served there; any other goes to the first free station, else
    to the least recently used one — :meth:`TapeLibrary.mount`'s pick
    outside :meth:`TapeLibrary.keep_mounted` (only an update's staging
    keeps a medium, and nothing plans it).
    """
    if num_drives < 1:
        raise HeavenError("need at least one drive")
    profile = library.profile
    start = library.clock.now
    # A reset clock can leave the arm horizon in the "future"; physically
    # the arm is idle before the batch starts.
    robot_free = min(library.robot.free_at, start)
    states = [
        _SimDrive(
            medium=d.medium.medium_id if d.medium is not None else None,
            head=d.head_position,
            now=start,
            last_used=d.last_used,
        )
        for d in library.drives
    ]
    stations = states[:num_drives]
    while len(stations) < num_drives:  # hypothetical empty stations
        stations.append(_SimDrive(medium=None, head=0, now=start, last_used=0))
    uses = itertools.count(max(s.last_used for s in states) + 1)
    holders = {s.medium: s for s in states if s.medium is not None}
    for medium_id, visit in _visits(ElevatorScheduler().order(requests, library)):
        state = holders.get(medium_id)
        if state is None:
            state = pick_drive(stations)
            arm_at = max(state.now, robot_free)
            state.wait += arm_at - state.now
            mount = _mount_seconds(profile, state.medium, state.head)
            # The arm is released once the cartridge is in the drive's
            # mouth; the drive threads (loads) it on its own time.
            robot_free = arm_at + mount - profile.load_time_s
            state.now = arm_at + mount
            state.busy += mount
            holders.pop(state.medium, None)
            holders[medium_id] = state
            state.medium, state.head = medium_id, 0
        sweep, state.head = _sweep_seconds(profile, visit, state.head)
        state.now += sweep
        state.busy += sweep
        state.last_used = next(uses)
        state.media.append(medium_id)
        state.requests.extend(visit)
    used = stations + [s for s in states if s.media and s not in stations]
    return ParallelPlan(
        drives=[
            DrivePlan(
                drive_index=index,
                media=state.media,
                requests=state.requests,
                busy_seconds=state.busy,
                wait_seconds=state.wait,
            )
            for index, state in enumerate(used)
        ],
        serial_seconds=sum(s.busy for s in used),
        makespan_seconds=max(s.now for s in used) - start,
        robot_wait_seconds=sum(s.wait for s in used),
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
    the estimate).  Raises :class:`HeavenError` beyond
    :data:`ESTIMATE_TOLERANCE`: a bad estimate silently skews every
    plan-driven decision, so drifting is a bug, not a warning.
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


def execute_batch(
    requests: Sequence[TapeRequest],
    library: TapeLibrary,
    scheduler: Optional[Scheduler] = None,
    tracer=None,
) -> ScheduleReport:
    """Run a request batch against the library; returns its cost report.

    The actual staging side effects (cache insertion) are the caller's job;
    this function performs the raw mounts/seeks/streams so schedulers can be
    compared in isolation.  Consecutive requests whose extents touch are
    coalesced into one seek+stream (the report still counts the original
    requests).
    """
    scheduler = scheduler if scheduler is not None else ElevatorScheduler()
    tracer = tracer if tracer is not None else null_tracer
    with tracer.span("scheduler.plan", scheduler=scheduler.name):
        ordered = scheduler.order(requests, library)
    if len(ordered) != len(requests):
        raise HeavenError(
            f"scheduler {scheduler.name!r} dropped requests "
            f"({len(ordered)} of {len(requests)})"
        )
    clock = library.clock
    watch = Stopwatch(clock)
    stats_before = library.stats()
    log_start = clock.log.cursor()
    runs = coalesce_requests(ordered)
    with tracer.span("library.stage", requests=len(ordered)):
        for run in runs:
            library.read_extent(run.medium_id, run.offset, run.length)
    stats_after = library.stats()
    return ScheduleReport(
        requests=len(ordered),
        exchanges=stats_after.exchanges - stats_before.exchanges,
        seeks=stats_after.seeks - stats_before.seeks,
        seek_distance_bytes=(
            stats_after.seek_distance_bytes - stats_before.seek_distance_bytes
        ),
        bytes_read=stats_after.bytes_read - stats_before.bytes_read,
        virtual_seconds=watch.elapsed,
        serial_device_seconds=sum(
            e.duration
            for e in clock.log.window(log_start, clock.log.cursor())
            if e.kind != "robot-wait"
        ),
        order=[r.key for r in ordered],
    )

# -- parallel execution (Kapitel 3.7.3) --------------------------------------


@dataclass
class DriveShare:
    """Executed share of one drive in a parallel batch."""

    drive_id: str
    media: List[str] = field(default_factory=list)
    requests: int = 0
    busy_seconds: float = 0.0
    wait_seconds: float = 0.0


@dataclass
class ParallelReport(ScheduleReport):
    """Cost report of one executed multi-drive batch.

    Extends :class:`ScheduleReport`: ``virtual_seconds`` is the batch
    makespan (the global clock advances by exactly that much),
    ``serial_device_seconds`` the total device work (every charged second
    but robot-arm waits), and their ratio the *executed* speedup.
    """

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
    """Discrete-event execution of a batch across several real drives: the
    serial schedule, overlapped.

    The batch runs in its scheduler's order, and every medium visit goes
    to the drive the serial loop would use (:meth:`TapeLibrary.drive_for`:
    the holder, else a free drive, else the least recently used one, never
    the kept append medium's drive while another is loaded), so
    the drives make exactly the mounts, seeks and reads of
    ``library.read_extent`` called request by request.  Only the timing
    differs: each drive charges its own :class:`Timeline`, the robot arm
    serves exchanges in schedule order via its ``free_at`` horizon, and
    after the batch the global clock advances once, to the max of the
    timelines — the batch makespan.  Every operation ends no later than it
    would in the serial loop.

    ``on_staged(request)`` lands each streamed request on a separate
    assembly timeline, in request order, each no earlier than its drive
    finished streaming it — so the disk cache sees the serial loop's
    insertions, while landing overlaps the drives streaming on.

    ``num_drives`` below the hardware's count is a what-if: only the first
    that many drives take new media.  Every visit's executed service time
    is validated against the cost model's estimate for it, made from the
    drive's state just before the visit — the per-visit cost the planner
    sums (fault windows excluded); drift beyond :data:`ESTIMATE_TOLERANCE`
    raises.
    """

    def __init__(
        self,
        library: TapeLibrary,
        num_drives: Optional[int] = None,
        tracer=None,
        scheduler: Optional[Scheduler] = None,
    ) -> None:
        available = len(library.drives)
        wanted = num_drives if num_drives is not None else available
        if wanted < 1:
            raise HeavenError("need at least one drive")
        self.library = library
        self.num_drives = min(wanted, available)
        self.tracer = tracer if tracer is not None else null_tracer
        self.scheduler = scheduler if scheduler is not None else ElevatorScheduler()
        #: drives that take no new media (a what-if below the hardware)
        self._excluded = frozenset(d.drive_id for d in library.drives[self.num_drives:])

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
        visits = _visits(self.scheduler.order(requests, library))
        start = clock.now
        timelines = {d.drive_id: d.timeline_at(start) for d in library.drives}
        assembly = Timeline.at("assembly", start)
        before = _tape_counters(library)
        order: List[str] = []
        shares: Dict[str, DriveShare] = {}
        drift = 0.0
        with self.tracer.span(
            "scheduler.parallel",
            drives=self.num_drives,
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
        drive = library.drive_for(medium_id, self._excluded)
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
