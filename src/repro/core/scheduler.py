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

Multi-drive batches run through the :class:`ParallelExecutor`: whole-media
elevator sweeps are dispatched onto per-drive :class:`~repro.tertiary.clock.
Timeline`\\ s (longest-processing-time-first, with idle drives stealing the
next-heaviest medium), the robot arm serialises one exchange at a time, and
the global clock advances once, to the max of the device timelines — the
batch makespan.  :func:`plan_parallel` runs the *same* dispatch loop over
the same cost model without touching devices, so its estimate and the
executed makespan agree by construction (validated per medium after every
parallel batch).
"""

from __future__ import annotations

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

    Media are indivisible (a medium can only be in one drive), so the plan
    assigns whole media to drives by longest-processing-time-first and
    executes each drive's share as an elevator sweep.  ``makespan`` is the
    longest drive timeline — the wall-clock of the parallel batch.

    The plan is produced by running the :class:`ParallelExecutor`'s own
    dispatch loop over the profile's cost model (exchange, load, seeks
    including the rewind before every stow, transfers, robot-arm
    serialisation) without touching any device, so on a fault-free run the
    executed makespan matches the plan exactly.
    """

    drives: List[DrivePlan]
    serial_seconds: float
    makespan_seconds: float
    #: planned service seconds per medium (exchange+load+sweep; no waits)
    medium_seconds: Dict[str, float] = field(default_factory=dict)
    #: planned total seconds drives spend waiting on the robot arm
    robot_wait_seconds: float = 0.0


# -- shared cost/dispatch core (planner and executor run the same loop) ------


@dataclass(frozen=True)
class _MediumJob:
    """One medium's share of a batch: its coalesced elevator sweep."""

    medium_id: str
    runs: Tuple[CoalescedRun, ...]
    requests: Tuple[TapeRequest, ...]  # elevator (ascending-offset) order


def _sweep_seconds(
    profile: TapeProfile, runs: Sequence[CoalescedRun], head: int
) -> Tuple[float, int]:
    """Seconds for a coalesced sweep starting at *head*; returns end head."""
    seconds = 0.0
    for run in runs:
        seconds += profile.seek_time(abs(run.offset - head))
        seconds += profile.transfer_time(run.length)
        head = run.end
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


def _select_drives(
    library: TapeLibrary, num_drives: int, media_ids: AbstractSet[str]
) -> List[Drive]:
    """The drives a batch runs on: holders of requested media first.

    A medium that already sits in a drive must be served by that drive
    (media are indivisible), so holders join the set first and the rest
    fills up in drive order.
    """
    chosen: List[Drive] = [
        d
        for d in library.drives
        if d.medium is not None and d.medium.medium_id in media_ids
    ][:num_drives]
    for drive in library.drives:
        if len(chosen) >= num_drives:
            break
        if drive not in chosen:
            chosen.append(drive)
    return chosen


def _prepare_batch(
    requests: Sequence[TapeRequest],
    library: TapeLibrary,
    num_drives: int,
) -> Tuple[List[Drive], List[List[str]], List[str], Dict[str, _MediumJob]]:
    """Split a batch into per-medium jobs and seed the dispatch queues.

    Returns ``(drives, preassigned, remaining, jobs)``: the participating
    drives (physical ones; the planner pads with hypothetical empty drives
    beyond that), per-drive queues of media already mounted in them, and
    the shared queue of remaining media in descending-cost (LPT) order —
    the queue idle drives steal from.
    """
    by_medium: Dict[str, List[TapeRequest]] = {}
    for request in requests:
        by_medium.setdefault(request.medium_id, []).append(request)
    jobs: Dict[str, _MediumJob] = {}
    for medium_id, medium_requests in by_medium.items():
        ordered = sorted(medium_requests, key=lambda r: (r.offset, r.key))
        jobs[medium_id] = _MediumJob(
            medium_id=medium_id,
            runs=tuple(coalesce_requests(ordered)),
            requests=tuple(ordered),
        )
    drives = _select_drives(library, num_drives, set(by_medium))
    preassigned: List[List[str]] = [[] for _ in range(num_drives)]
    taken = set()
    for i, drive in enumerate(drives):
        if drive.medium is not None and drive.medium.medium_id in jobs:
            preassigned[i].append(drive.medium.medium_id)
            taken.add(drive.medium.medium_id)
    profile = library.profile
    cold = {
        medium_id: profile.full_exchange_time()
        + _sweep_seconds(profile, job.runs, 0)[0]
        for medium_id, job in jobs.items()
        if medium_id not in taken
    }
    remaining = sorted(cold, key=lambda m: (-cold[m], m))
    return drives, preassigned, remaining, jobs


def _next_dispatch(
    nows: Sequence[float],
    preassigned: List[List[str]],
    remaining: List[str],
) -> Optional[Tuple[int, str]]:
    """Pick the next (drive index, medium) to serve, or None when drained.

    The drive whose timeline is furthest behind goes next (ties broken by
    index), which keeps robot-arm reservations in chronological order —
    the property that makes ``free_at`` bookkeeping a correct
    discrete-event treatment of the shared arm.  A drive serves media
    already mounted in it first, then steals from the shared LPT queue.
    """
    candidates = [
        i for i in range(len(nows)) if preassigned[i] or remaining
    ]
    if not candidates:
        return None
    i = min(candidates, key=lambda i: (nows[i], i))
    medium_id = preassigned[i].pop(0) if preassigned[i] else remaining.pop(0)
    return i, medium_id


@dataclass
class _SimDrive:
    """Planner-side mirror of one drive's state and timeline."""

    loaded: Optional[str]
    head: int
    now: float
    busy: float = 0.0
    wait: float = 0.0
    media: List[str] = field(default_factory=list)


def _simulate_dispatch(
    profile: TapeProfile,
    states: List[_SimDrive],
    preassigned: List[List[str]],
    remaining: List[str],
    jobs: Dict[str, _MediumJob],
    robot_free: float,
    start: float,
) -> Tuple[float, Dict[str, float]]:
    """Run the dispatch loop over the cost model (no devices touched).

    Mutates *states*; returns ``(makespan, service seconds per medium)``.
    """
    pre = [list(queue) for queue in preassigned]
    rem = list(remaining)
    medium_seconds: Dict[str, float] = {}
    while True:
        pick = _next_dispatch([s.now for s in states], pre, rem)
        if pick is None:
            break
        index, medium_id = pick
        state = states[index]
        job = jobs[medium_id]
        service = 0.0
        if state.loaded != medium_id:
            arm_at = max(state.now, robot_free)
            state.wait += arm_at - state.now
            mount = _mount_seconds(profile, state.loaded, state.head)
            # The arm is released once the cartridge is in the drive's
            # mouth; the drive threads (loads) it on its own time.
            robot_free = arm_at + mount - profile.load_time_s
            state.now = arm_at + mount
            service += mount
            head = 0
        else:
            head = state.head
        sweep, head = _sweep_seconds(profile, job.runs, head)
        state.now += sweep
        service += sweep
        state.busy += service
        state.head = head
        state.loaded = medium_id
        state.media.append(medium_id)
        medium_seconds[medium_id] = service
    makespan = max((s.now for s in states), default=start) - start
    return makespan, medium_seconds


def plan_parallel(
    requests: Sequence[TapeRequest],
    library: TapeLibrary,
    num_drives: int,
) -> ParallelPlan:
    """Partition a batch across *num_drives* drives and compute the makespan.

    The plan runs the executor's own dispatch loop over the profile's cost
    model: whole media assigned longest-first, idle drives stealing from
    the shared queue, one robot-arm exchange at a time.  ``num_drives`` may
    exceed the library's physical drives — extra drives are simulated as
    empty stations (a what-if analysis); the :class:`ParallelExecutor`
    itself is capped by the hardware.  ``serial_seconds`` is the same
    simulation on a single drive.
    """
    if num_drives < 1:
        raise HeavenError("need at least one drive")
    profile = library.profile
    start = library.clock.now
    # A reset clock can leave the arm horizon in the "future"; physically
    # the arm is idle before the batch starts.
    robot_free = min(library.robot.free_at, start)

    def states_for(drives: List[Drive], count: int) -> List[_SimDrive]:
        states = [
            _SimDrive(
                loaded=d.medium.medium_id if d.medium is not None else None,
                head=d.head_position,
                now=start,
            )
            for d in drives
        ]
        while len(states) < count:  # hypothetical empty stations
            states.append(_SimDrive(loaded=None, head=0, now=start))
        return states

    drives, preassigned, remaining, jobs = _prepare_batch(
        requests, library, num_drives
    )
    states = states_for(drives, num_drives)
    makespan, medium_seconds = _simulate_dispatch(
        profile, states, preassigned, remaining, jobs, robot_free, start
    )

    serial_drives, serial_pre, serial_rem, _ = _prepare_batch(
        requests, library, 1
    )
    serial_states = states_for(serial_drives, 1)
    serial, _serial_media = _simulate_dispatch(
        profile, serial_states, serial_pre, serial_rem, jobs, robot_free, start
    )

    plans = []
    for index, state in enumerate(states):
        plans.append(
            DrivePlan(
                drive_index=index,
                media=list(state.media),
                requests=[
                    r for medium in state.media for r in jobs[medium].requests
                ],
                busy_seconds=state.busy,
                wait_seconds=state.wait,
            )
        )
    return ParallelPlan(
        drives=plans,
        serial_seconds=serial,
        makespan_seconds=makespan,
        medium_seconds=medium_seconds,
        robot_wait_seconds=sum(s.wait for s in states),
    )


#: per-medium estimator tolerance: executed service may deviate this much
ESTIMATE_TOLERANCE = 0.10

#: event kinds that mark a window as fault-afflicted (estimates don't apply)
_FAULT_KINDS = frozenset({"fault", "backoff"})


def _window_device_seconds(events, devices: AbstractSet[str]) -> float:
    """Charged service seconds of *devices* in an event window (no waits)."""
    return sum(
        e.duration
        for e in events
        if e.device in devices and e.kind != "robot-wait"
    )


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
    if planned <= 0 or any(e.kind in _FAULT_KINDS for e in events):
        return None
    actual = _window_device_seconds(events, devices)
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
    ``serial_device_seconds`` the total device work, and their ratio the
    *executed* speedup — measured from the event log, not estimated.
    """

    media: int = 0
    drives: List[DriveShare] = field(default_factory=list)
    robot_wait_seconds: float = 0.0
    assembly_seconds: float = 0.0
    planned_makespan_seconds: float = 0.0
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
    """Discrete-event execution of a batch across several real drives.

    Each participating drive gets its own :class:`Timeline`; whole-media
    elevator sweeps are dispatched longest-first with idle drives stealing
    from the shared queue, and the robot arm serialises exchanges across
    timelines via its ``free_at`` horizon.  After the last sweep the global
    clock advances once, to the max of the timelines — so to the rest of
    the system the batch took its makespan, while the event log carries
    true per-device start times throughout.

    ``on_staged(request)`` pipelines stage with assembly: it runs on a
    separate assembly timeline seeded at each run's completion instant, so
    decoding/landing staged segments overlaps the drive streaming the next
    run (the overlap E4 shows dominating TCT export, now on the read path).

    Every medium's executed service time is validated against the plan's
    estimate (fault windows excluded); drift beyond
    :data:`ESTIMATE_TOLERANCE` raises.
    """

    def __init__(
        self,
        library: TapeLibrary,
        num_drives: Optional[int] = None,
        tracer=None,
    ) -> None:
        available = len(library.drives)
        wanted = num_drives if num_drives is not None else available
        if wanted < 1:
            raise HeavenError("need at least one drive")
        self.library = library
        self.num_drives = min(wanted, available)
        self.tracer = tracer if tracer is not None else null_tracer

    def execute(
        self,
        requests: Sequence[TapeRequest],
        on_staged: Optional[Callable[[TapeRequest], None]] = None,
    ) -> ParallelReport:
        """Serve *requests* across the drives; returns the executed report."""
        if not requests:
            return ParallelReport()
        clock = self.library.clock
        if clock.active_timeline is not None:
            raise HeavenError("parallel batches cannot nest inside a timeline")
        # The global clock is monotone, so at batch start the arm cannot be
        # busy in the future; a stale horizon (clock reset since the last
        # exchange) would otherwise charge phantom waits on the timelines.
        robot = self.library.robot
        if robot.free_at > clock.now:
            robot.free_at = clock.now
        plan = plan_parallel(requests, self.library, self.num_drives)
        drives, preassigned, remaining, jobs = _prepare_batch(
            requests, self.library, self.num_drives
        )
        start = clock.now
        timelines = [drive.timeline_at(start) for drive in drives]
        assembly = Timeline.at("assembly", start)
        stats_before = self.library.stats()
        log_start = clock.log.cursor()
        order: List[str] = []
        shares = {
            drive.drive_id: DriveShare(drive_id=drive.drive_id)
            for drive in drives
        }
        drift = 0.0
        with self.tracer.span(
            "scheduler.parallel",
            drives=len(drives),
            media=len(jobs),
            requests=len(requests),
        ):
            try:
                while True:
                    pick = _next_dispatch(
                        [t.now for t in timelines], preassigned, remaining
                    )
                    if pick is None:
                        break
                    index, medium_id = pick
                    medium_drift = self._serve_medium(
                        drives[index],
                        timelines[index],
                        jobs[medium_id],
                        plan.medium_seconds.get(medium_id, 0.0),
                        assembly,
                        on_staged,
                        order,
                        shares[drives[index].drive_id],
                    )
                    if medium_drift is not None:
                        drift = max(drift, medium_drift)
            finally:
                # The batch is over when the slowest timeline finishes —
                # including the assembly tail still landing staged data.
                clock.sync_to(timelines + [assembly])
        stats_after = self.library.stats()
        for timeline, drive in zip(timelines, drives):
            share = shares[drive.drive_id]
            share.busy_seconds = timeline.busy_seconds
            share.wait_seconds = timeline.wait_seconds
        window = clock.log.window(log_start, clock.log.cursor())
        return ParallelReport(
            requests=len(requests),
            exchanges=stats_after.exchanges - stats_before.exchanges,
            seeks=stats_after.seeks - stats_before.seeks,
            seek_distance_bytes=(
                stats_after.seek_distance_bytes
                - stats_before.seek_distance_bytes
            ),
            bytes_read=stats_after.bytes_read - stats_before.bytes_read,
            virtual_seconds=clock.now - start,
            serial_device_seconds=sum(
                e.duration for e in window if e.kind != "robot-wait"
            ),
            order=order,
            media=len(jobs),
            drives=[shares[d.drive_id] for d in drives],
            robot_wait_seconds=(
                stats_after.time_robot_wait_s - stats_before.time_robot_wait_s
            ),
            assembly_seconds=assembly.elapsed,
            planned_makespan_seconds=plan.makespan_seconds,
            estimate_drift=drift,
        )

    def _serve_medium(
        self,
        drive: Drive,
        timeline: Timeline,
        job: _MediumJob,
        planned: float,
        assembly: Timeline,
        on_staged: Optional[Callable[[TapeRequest], None]],
        order: List[str],
        share: DriveShare,
    ) -> Optional[float]:
        """Mount and sweep one whole medium on *drive*'s timeline."""
        clock = self.library.clock
        with clock.timeline(timeline):
            window_start = clock.log.cursor()
            self.library.mount_on(job.medium_id, drive)
            for run in job.runs:
                self.library.read_extent_on(drive, run.offset, run.length)
                order.extend(r.key for r in run.requests)
                if on_staged is not None:
                    # Assembly picks the run up the instant the drive is
                    # done streaming it (or as soon as it drains earlier
                    # runs) and proceeds while the drive seeks on.
                    if assembly.now < timeline.now:
                        assembly.now = timeline.now
                    with clock.timeline(assembly):
                        for request in run.requests:
                            on_staged(request)
            window_end = clock.log.cursor()
        share.media.append(job.medium_id)
        share.requests += len(job.requests)
        return _check_estimate(
            job.medium_id,
            planned,
            clock.log.window(window_start, window_end),
            {drive.drive_id, self.library.robot.robot_id},
        )
