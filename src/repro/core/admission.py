"""Admission and scheduling: the one driver of every staging.

The paper's inter-query scheduling (Kapitel 3.4.3) reorders the tape
requests "of one or many queries".  This layer is where every staging
becomes a query of units ``(mdd, cover, answer)``: stage the cover, then
call the answer.  :meth:`~repro.core.heaven.Heaven.read_many` submits one
query with N units; every other direct read, framed read, RasQL trim,
condenser edge reduction and ``update``/``reimport`` tile load one query
with one unit; :meth:`AdmissionController.run_units` (the data nodes'
path) N queries with one unit each, and :meth:`AdmissionController.run`
independent queries with open-loop arrivals.  Queries post their staging
demands into a shared per-medium queue, and the controller fuses
overlapping super-tile runs **across queries** into single elevator
sweeps.  Every sweep is one :func:`~repro.core.staging.stage_sweep` pass,
the staging pass of every staging: admission only decides which demands
share a pass.  A run of one query takes all of its demands in one
sweep, over every medium in elevator order.  With several queries, four
policies shape the sweeps:

* **anticipatory hold-back** — a dispatch can wait a bounded virtual-time
  window (``holdback_s``) so queries arriving inside the window
  are absorbed into the same mount instead of paying their own exchange;
* **weighted-fair picking** — the next medium served is the one whose
  neediest demanding query has received the least attributed service per
  unit weight, so a PB-scale scan cannot monopolise the robot;
* **work conservation** — the sweep for the picked medium fills every
  drive: it takes the next-fairest media, each whole or not at all, until
  it holds one medium per drive, so the media load and stream side by
  side; then it serves the pending demands on media already sitting in a
  drive, which cost no exchange now and which a later sweep would often
  find exchanged out.  Both stay within the disk cache's free bytes;
* **aging escalation** — once the oldest pending demand has waited more
  than half the configured ``aging_bound_s``, scheduling
  degenerates to strict oldest-first (the oldest demand's medium alone,
  no extra media, no ride-alongs) until the backlog drains, bounding
  every demand's wait.

Correctness is anchored on three invariants the test layer proves:

1. any admissible interleaving returns byte-identical cells to serial
   execution (the caches and per-query tickets make staging order
   invisible);
2. no demand waits longer than the aging bound in virtual time;
3. a fused sweep never stages a byte no query demanded (audited per
   segment in :class:`FusionAudit` entries).

Each query owns one :class:`~repro.core.staging.StagingTicket` from
enqueue to assembly.  Before a sweep's own ticket is released, every
demanding query's ticket takes one pin on each fused segment still in the
disk cache, and one on each tile the sweep had to drain into the memory
tile cache once its segment left the disk cache.  So one query's release
can never unpin bytes another query still needs.  A tile whose run is gone
anyway is read straight off tape while its query assembles; that takes no
pin, and its tape bytes land in the query's own assembly window.

Every query's :class:`RetrievalReport` comes from one
builder (:meth:`AdmissionController._seal`).  Its event counts, staged
runs, waves and pins cover the sweeps that served it plus its own
assembly, so a shared sweep's mounts and faults appear on every query
that demanded it.  Its tape bytes are exact: a sweep one query demanded
is wholly that query's, a shared one is split without double counting
(:func:`~repro.core.scheduler.split_shared_bytes`), and the sum of the
per-query reports plus the explicit unattributed remainder equals the
event log's drive-read bytes exactly
(:func:`~repro.obs.reconcile.reconcile_shared_tape_bytes`).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Sequence
from typing import Set, Tuple

from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..errors import HeavenError
from ..obs.reconcile import event_window_bytes
from . import staging
from .scheduler import attribute_request_bytes
from .staging import StagingTicket, _SegmentNeed
from .units import SubReadRequest, SubReadResponse, _answer_nbytes, _unit_response

if TYPE_CHECKING:
    from .heaven import Heaven

__all__ = [
    "QuerySpec",
    "FusionAudit",
    "MultiQueryReport",
    "AdmissionController",
    "RetrievalReport",
]

#: event-log device name of the admission layer's own charges
ADMISSION_DEVICE = "admission"


@dataclass
class RetrievalReport:
    """Cost summary of one hierarchical read: one admission query.

    Event counts, ``super_tiles_staged``, ``waves`` and ``pins`` cover the
    sweeps that served it plus its own assembly; ``bytes_from_tape`` is its
    exact share of those sweeps plus its assembly's reads.
    """

    object_name: str
    region: str
    tiles_needed: int = 0
    super_tiles_staged: int = 0
    bytes_from_tape: int = 0
    bytes_useful: int = 0
    exchanges: int = 0
    virtual_seconds: float = 0.0
    #: injected hardware faults hit while serving this read
    faults: int = 0
    #: backoff delays charged by the recovery layer during this read
    backoffs: int = 0
    #: read of a tape-resident object served entirely from the cache
    #: hierarchy while the library was offline (graceful degradation)
    degraded: bool = False
    #: tiles its assembly read straight off tape because their staged run
    #: was gone (0 = healthy: the staged segments survived until read)
    restages: int = 0
    #: pin references this read owns — its sweeps' tickets' and the ones
    #: handed over to its own ticket — so a lone query's count reconciles
    #: with the cache-pin metric
    pins: int = 0
    #: eviction nominations skipped over pinned entries while this ran
    pin_evictions_blocked: int = 0
    #: capacity-sized admission waves of the sweeps that served this read
    waves: int = 0

    @property
    def useless_ratio(self) -> float:
        if self.bytes_from_tape == 0:
            return 0.0
        return 1.0 - self.bytes_useful / self.bytes_from_tape


class _Unit(NamedTuple):
    """One unit of an admission query: stage *cover*, then call *answer*."""

    mdd: MDD
    #: tile ids to stage
    cover: List[int]
    #: answers the unit once its cover is staged: region cells, clipped
    #: tiles, a trim's or a frame's cells, or None (a mutation's body)
    answer: Callable[[], Any]


@dataclass(frozen=True)
class QuerySpec:
    """One independent query submitted to the admission layer.

    Attributes:
        collection / object_name / region: the read itself.
        arrival_s: virtual time the query enters the system (open-loop
            arrivals; queries are admitted once the clock reaches it).
        weight: fair-share weight (``None`` weighs 1.0); higher weight
            means a larger share of sweep service.
        name: display label in reports (defaults to the object name).
        tile_ids: explicit tile subset instead of the region's full tile
            cover — the sharded form a data node serves.  The query then
            answers with ``{tile_id: cells}``, each tile clipped to its
            overlap with *region*, rather than one assembled region, since
            the region's other tiles belong to other shards.
    """

    collection: str
    object_name: str
    region: MInterval
    arrival_s: float = 0.0
    weight: Optional[float] = None
    name: str = ""
    tile_ids: Optional[Tuple[int, ...]] = None

    @property
    def label(self) -> str:
        return self.name or self.object_name


class FusionAudit(NamedTuple):
    """Provenance of one fused segment inside one sweep.

    The no-unrequested-bytes property is checked against these entries:
    the staged run must stay inside the union of the demanded run and any
    pre-existing cached run it had to absorb.
    """

    key: str
    #: the medium this segment lives on (one sweep may span several)
    medium_id: str
    #: union of the demanding queries' byte runs on this segment
    demanded_run: Tuple[int, int]
    #: byte run actually staged (or the covering cached run, for hits)
    staged_run: Tuple[int, int]
    #: queries whose demands this fused segment served
    queries: Tuple[int, ...]
    #: served from the disk cache without any tape request
    cache_hit: bool = False
    #: the staged run absorbed a pre-existing (too-small) cached run
    absorbed_cached: bool = False


class _Demand(NamedTuple):
    """One query's pending staging demand on one tape segment."""

    key: str
    medium_id: str
    #: byte run this query alone would stage
    run: Tuple[int, int]
    enqueued_s: float = 0.0


@dataclass
class _QueryTask:
    """Controller-side state of one query: enqueue -> wait -> assemble."""

    qid: int
    arrival_s: float = 0.0
    #: the report's ``(object_name, region)``
    label: Tuple[str, str] = ("", "")
    weight: float = 1.0
    #: a submitted spec, resolved before the run, its access recorded on admission
    spec: Optional[QuerySpec] = None
    units: List[_Unit] = field(default_factory=list)
    admitted: bool = False
    done: bool = False
    #: pins held for this query from enqueue until it assembled: resident
    #: tiles it skipped staging for, and what its sweeps handed over
    ticket: Optional[StagingTicket] = None
    #: staging needs collected at enqueue, per segment
    needs: Dict[str, _SegmentNeed] = field(default_factory=dict)
    demands: Dict[str, _Demand] = field(default_factory=dict)
    pending: Set[str] = field(default_factory=set)
    #: attributed sweep service (virtual seconds, weighted-fair currency)
    service_s: float = 0.0
    #: exact share of its sweeps' tape bytes, plus its assembly's
    tape_bytes: int = 0
    #: event kinds of its sweeps' windows and its assembly's window
    events: Counter = field(default_factory=Counter)
    #: its sweeps' staging tallies: runs streamed, waves, pins taken
    staged: int = 0
    waves: int = 0
    sweep_pins: int = 0
    enqueued_s: float = 0.0
    finished_s: float = 0.0
    max_wait_s: float = 0.0
    #: host seconds from enqueue to assembled (``perf_counter()`` at
    #: enqueue until it assembled)
    wall_s: float = 0.0
    #: one answer per unit
    answers: List[Any] = field(default_factory=list)


@dataclass
class MultiQueryReport:
    """Cost summary of one concurrent multi-query run."""

    #: per-query cost reports, in submission order
    queries: List[RetrievalReport] = field(default_factory=list)
    #: per-query sojourn (arrival -> finish) in virtual seconds
    latencies_s: List[float] = field(default_factory=list)
    #: fused sweeps dispatched
    sweeps: int = 0
    #: media each sweep streamed from, in sweep order
    sweep_media: List[int] = field(default_factory=list)
    #: distinct fused segments across all sweeps
    fused_segments: int = 0
    #: total media exchanges of the whole run
    exchanges: int = 0
    #: total drive-read bytes of the whole run (event-log exact)
    bytes_from_tape: int = 0
    #: sweep tape bytes not attributable to any query (prefetch,
    #: fault-recovery re-reads); keeps the per-query split reconcilable
    unattributed_tape_bytes: int = 0
    #: tape bytes fusion avoided vs. each query staging its own run
    fusion_saved_bytes: int = 0
    #: media exchanges fusion avoided (demanding queries - 1 per medium a
    #: sweep streamed from)
    fusion_saved_exchanges: int = 0
    #: virtual seconds spent inside anticipatory hold-back windows
    holdback_seconds: float = 0.0
    #: queries absorbed into a sweep by a hold-back window
    holdback_absorbed: int = 0
    #: longest any staging demand waited (enqueue -> satisfied)
    max_wait_s: float = 0.0
    #: deepest shared staging queue observed at a dispatch decision
    max_queue_depth: int = 0
    #: whole-run virtual makespan
    makespan_s: float = 0.0
    #: per-segment fusion provenance, in sweep order
    audit: List[FusionAudit] = field(default_factory=list)
    #: absolute event-log cursor at run start (for reconciliation)
    log_cursor_start: int = 0

    @property
    def total_bytes_attributed(self) -> int:
        return (
            sum(r.bytes_from_tape for r in self.queries)
            + self.unattributed_tape_bytes
        )


class AdmissionController:
    """Round-robin query driver + fused-sweep scheduler.

    Queries are visited in a seeded, fixed round-robin order: each
    enqueues its demands on arrival and assembles once a sweep satisfied
    the last of them.  Every step is deterministic under the SimClock, so
    a ``schedule_seed`` fully determines the interleaving (the property
    suite exploits this to enumerate interleavings).
    """

    def __init__(
        self,
        heaven: Heaven,
        *,
        holdback_s: float = 0.0,
        aging_bound_s: Optional[float] = None,
        schedule_seed: Optional[int] = None,
    ) -> None:
        """
        Args:
            holdback_s: anticipatory hold-back window: a fused sweep's
                dispatch is delayed by exactly this many virtual seconds so
                queries arriving inside the window are absorbed into the
                same mount.  ``0.0`` dispatches immediately.
            aging_bound_s: fairness bound: once the oldest pending staging
                demand has waited more than half this many virtual seconds,
                scheduling escalates to strict oldest-first dispatch until
                the backlog is drained.  ``None`` disables aging escalation
                (pure weighted-fair picking).
            schedule_seed: shuffles the round-robin visiting order.
        """
        if holdback_s < 0:
            raise HeavenError("holdback_s must be >= 0")
        if aging_bound_s is not None and aging_bound_s <= 0:
            raise HeavenError("aging_bound_s must be positive or None")
        self.heaven = heaven
        self.holdback_s = holdback_s
        self.aging_bound_s = aging_bound_s
        self.schedule_seed = schedule_seed
        self._tasks: List[_QueryTask] = []
        self._order: List[_QueryTask] = []
        self._report = MultiQueryReport()

    # ------------------------------------------------------------------ run

    def run(
        self, specs: Sequence[QuerySpec]
    ) -> Tuple[List[Any], MultiQueryReport]:
        """Run *specs* to completion: per-query cells (region cells, or
        ``{tile_id: clipped cells}`` for a tile subset) + combined report.
        A rejected spec raises before any is admitted."""
        heaven = self.heaven
        log = heaven.clock.log
        tasks = [
            _QueryTask(
                qid=index + 1,
                arrival_s=spec.arrival_s,
                label=(spec.label, str(spec.region)),
                weight=1.0 if spec.weight is None else spec.weight,
                spec=spec,
                units=[
                    heaven._resolve_unit(
                        spec.collection, spec.object_name, spec.region, spec.tile_ids
                    )
                ],
            )
            for index, spec in enumerate(specs)
        ]
        report = self._drive(tasks)
        window = log.window(report.log_cursor_start)
        report.exchanges = sum(1 for e in window if e.kind == "load")
        report.bytes_from_tape = event_window_bytes(log, report.log_cursor_start)
        report.latencies_s = [task.finished_s - task.arrival_s for task in tasks]
        report.max_wait_s = max((task.max_wait_s for task in tasks), default=0.0)
        return [task.answers[0] for task in tasks], report

    def run_query(
        self, units: Sequence[_Unit], label: Tuple[str, str]
    ) -> Tuple[List[Any], RetrievalReport]:
        """Answer *units* as ONE query, arriving now: one answer per unit
        and the query's report, labelled ``(object_name, region)``.

        Every staging outside :meth:`run` and :meth:`run_units` comes here
        (``Heaven.read_with_report``, ``read_many`` and ``_query_unit``):
        a lone query, so its demands on every medium share one sweep and
        each medium is mounted at most once.
        """
        task = _QueryTask(
            qid=1, arrival_s=self.heaven.clock.now, label=label, units=list(units)
        )
        (report,) = self._drive([task]).queries
        return task.answers, report

    def run_units(
        self, units: Sequence[SubReadRequest]
    ) -> Tuple[List[SubReadResponse], MultiQueryReport]:
        """Answer serializable sub-read units as concurrent queries.

        The data-node fusion path of the service tier: every unit becomes
        one admission query over its tile subset, their staging fuses
        into shared sweeps, and each response's stats
        are that query's report: exact tape-byte shares (no cross-tenant
        leakage), and the mounts and faults of every sweep it was part of.
        Units are admitted at the current clock, so per-unit
        ``virtual_seconds`` is pure service time; open-loop arrival
        accounting is the cluster's job.
        """
        now = self.heaven.clock.now
        specs = [
            QuerySpec(
                collection=unit.collection,
                object_name=unit.object_name,
                region=unit.parsed_region(),
                arrival_s=now,
                name=unit.request_id,
                tile_ids=unit.tile_ids,
            )
            for unit in units
        ]
        outputs, report = self.run(specs)
        responses = [
            _unit_response(unit, task.units[0].mdd, cells, query_report)
            for unit, task, cells, query_report in zip(
                units, self._tasks, outputs, report.queries
            )
        ]
        return responses, report

    def _drive(self, tasks: List[_QueryTask]) -> MultiQueryReport:
        """Run *tasks* to completion and seal one report per query."""
        heaven = self.heaven
        clock = heaven.clock
        self._report = MultiQueryReport(log_cursor_start=clock.log.cursor())
        self._tasks = tasks
        self._order = list(tasks)
        if self.schedule_seed is not None:
            random.Random(self.schedule_seed).shuffle(self._order)
        start_s = clock.now
        try:
            with heaven.tracer.span("admission.run", queries=len(tasks)):
                self._loop()
        except BaseException:
            # A typed storage failure mid-run (offline library, retry
            # budget spent) must not leak the queries' pins: quiescence is
            # part of the contract even on the error path.
            for task in tasks:
                if task.ticket is not None:
                    task.ticket.release()
            raise
        report = self._report
        report.makespan_s = clock.now - start_s
        # Sealed here, not as each query finishes: a run that raises hands
        # out no report, and its units are served (and counted) again.
        report.queries = [self._seal(task) for task in tasks]
        return report

    def _loop(self) -> None:
        clock = self.heaven.clock
        while True:
            self._admit_arrivals(clock.now)
            for task in self._order:
                if task.admitted and not task.done and not task.pending:
                    self._assemble(task)
            if all(task.done for task in self._tasks):
                return
            if any(
                task.admitted and task.pending for task in self._tasks
            ):
                self._dispatch_sweep()
                continue
            future = [task.arrival_s for task in self._tasks if not task.admitted]
            if not future:  # pragma: no cover - loop invariant
                raise HeavenError("admission stalled: no runnable task")
            gap = min(future) - clock.now
            if gap > 0:
                clock.charge(
                    gap, "wait", ADMISSION_DEVICE, detail="idle until arrival"
                )

    def _admit_arrivals(self, now: float) -> None:
        """Enqueue every query that has arrived; one that needs no staging
        assembles at once."""
        for task in self._order:
            if not task.admitted and task.arrival_s <= now:
                task.admitted = True
                self._enqueue(task)
                if not task.pending:
                    self._assemble(task)

    # ------------------------------------------------------------------ query life

    def _enqueue(self, task: _QueryTask) -> None:
        """Record a spec's access, collect the query's needs once, and post
        one staging demand per tape segment."""
        heaven = self.heaven
        if task.spec is not None:
            heaven._record_access(task.units[0].mdd, task.spec.region)
        task.ticket = StagingTicket(
            cache=heaven.disk_cache, memory=heaven.memory_cache
        )
        task.needs = heaven.collect_needs(
            [(unit.mdd, unit.cover) for unit in task.units], task.ticket.tile_pins
        )
        task.enqueued_s = heaven.clock.now
        task.wall_s = perf_counter()
        for key, need in sorted(task.needs.items()):
            need.query_ids = (task.qid,)
            task.demands[key] = _Demand(
                key=key,
                medium_id=heaven.library.locate(key),
                run=need.run,
                enqueued_s=task.enqueued_s,
            )
        task.pending = set(task.demands)

    def _assemble(self, task: _QueryTask) -> None:
        """Answer the query's units, then release its ticket.

        Everything charged between the cursor and the end of the read
        belongs to this query alone (restages of tiles whose staged run is
        gone, ...).
        """
        heaven = self.heaven
        log = heaven.clock.log
        cursor = log.cursor()
        assert task.ticket is not None
        try:
            with heaven.tracer.span(
                "heaven.assemble", query=task.qid, units=len(task.units)
            ) as span:
                task.answers = [unit.answer() for unit in task.units]
        finally:
            task.ticket.release()
        if heaven.instruments is not None and span.enabled:
            heaven.instruments.observe_assemble_wall(span.wall_elapsed)
        task.wall_s = perf_counter() - task.wall_s
        task.events.update(event.kind for event in log.window(cursor))
        task.tape_bytes += event_window_bytes(log, cursor)
        task.finished_s = heaven.clock.now
        task.done = True

    def _seal(self, task: _QueryTask) -> RetrievalReport:
        """The one report builder of every query (see
        :class:`RetrievalReport`); its latency runs from
        its arrival.  The instance's read counters and histograms are fed
        here, once per query."""
        heaven = self.heaven
        events = task.events
        assert task.ticket is not None
        report = RetrievalReport(
            object_name=task.label[0],
            region=task.label[1],
            tiles_needed=sum(len(unit.cover) for unit in task.units),
            super_tiles_staged=task.staged,
            bytes_from_tape=task.tape_bytes,
            bytes_useful=sum(_answer_nbytes(answer) for answer in task.answers),
            exchanges=events["load"],
            virtual_seconds=task.finished_s - task.arrival_s,
            faults=events["fault"],
            backoffs=events["backoff"],
            restages=events["restage"],
            pins=task.sweep_pins + task.ticket.pins,
            pin_evictions_blocked=events["pin-blocked"],
            waves=task.waves,
        )
        heaven.read_tiles_needed += report.tiles_needed
        heaven.read_bytes_useful += report.bytes_useful
        if heaven.instruments is not None:
            heaven.instruments.observe_read(
                report.virtual_seconds, report.bytes_from_tape, wall_seconds=task.wall_s
            )
        # Graceful degradation: a read of a tape-only object the caches
        # served while the library is offline never reached the robot.
        if not report.bytes_from_tape and heaven.library.faults.offline and any(
            not heaven.archived(unit.mdd.name).disk_copy
            for unit in task.units
            if heaven.is_archived(unit.mdd.name)
        ):
            report.degraded = True
            heaven.degraded_reads_served += 1
        return report

    # ------------------------------------------------------------------ scheduling

    def _pending_demands(self) -> List[Tuple[_QueryTask, _Demand]]:
        out: List[Tuple[_QueryTask, _Demand]] = []
        for task in self._tasks:
            if not task.admitted or task.done:
                continue
            for key in sorted(task.pending):
                out.append((task, task.demands[key]))
        return out

    def _overdue(
        self, pending: Sequence[Tuple[_QueryTask, _Demand]]
    ) -> Optional[_Demand]:
        """The oldest pending demand while aging escalation is active."""
        if self.aging_bound_s is None:
            return None
        _task, oldest = min(pending, key=lambda td: (td[1].enqueued_s, td[0].qid))
        if self.heaven.clock.now - oldest.enqueued_s > self.aging_bound_s / 2.0:
            return oldest
        return None

    def _pick_medium(
        self, pending: Sequence[Tuple[_QueryTask, _Demand]]
    ) -> str:
        """Weighted-fair medium choice with aging escalation."""
        overdue = self._overdue(pending)
        if overdue is not None:
            # Aging escalation: serve the oldest demand's medium next, no
            # matter how much service its query already received.
            return overdue.medium_id
        return min(
            (task.service_s / task.weight, demand.medium_id) for task, demand in pending
        )[1]

    def _dispatch_sweep(self) -> None:
        """Fuse all pending demands on the picked medium into one sweep,
        with one more whole medium per further drive and the demands on
        media already in a drive, as far as they fit the disk cache (see
        :meth:`_fill_drives`).  A lone query's sweep takes all of its
        demands; an escalated one takes the oldest demand's medium alone.

        On the 2-node ``service_read`` workload, filling the second drive
        took ``virtual_p95_s`` from 118.99 to 109.49 s (seed 20040314) and
        from 116.50 to 106.34 s (seed 19991231), with no more exchanges.
        """
        heaven = self.heaven
        clock = heaven.clock
        report = self._report
        pending = self._pending_demands()
        report.max_queue_depth = max(report.max_queue_depth, len(pending))
        if heaven.instruments is not None:
            heaven.instruments.observe_admission_queue_depth(len(pending))
        escalated = self._overdue(pending) is not None
        medium_id = self._pick_medium(pending)
        # Anticipatory hold-back: wait out the window so queries arriving
        # inside it join this very sweep instead of paying their own mount.
        if self.holdback_s > 0:
            clock.charge(
                self.holdback_s,
                "holdback",
                ADMISSION_DEVICE,
                detail=f"hold {medium_id}",
            )
            heaven.admission_holdback_seconds += self.holdback_s
            report.holdback_seconds += self.holdback_s
            before = sum(1 for t in self._tasks if t.admitted)
            self._admit_arrivals(clock.now)
            report.holdback_absorbed += (
                sum(1 for t in self._tasks if t.admitted) - before
            )
            pending = self._pending_demands()
        if len(self._tasks) == 1:
            # Nothing to be fair to or to wait for: one pass over every
            # medium, which the scheduler orders and the parallel executor
            # spreads over the drives.
            chosen = pending
        else:
            chosen = [
                (task, demand)
                for task, demand in pending
                if demand.medium_id == medium_id
            ]
            if not escalated:
                self._fill_drives(medium_id, pending, chosen)
        self._execute_sweep(medium_id, chosen)

    def _fill_drives(
        self,
        medium_id: str,
        pending: Sequence[Tuple[_QueryTask, _Demand]],
        chosen: List[Tuple[_QueryTask, _Demand]],
    ) -> None:
        """Work conservation: add to *chosen* (the picked medium's demands)
        one more medium per drive, then the pending demands on media
        already in a drive, which cost no exchange now.

        Both spend one budget, the disk cache's free bytes next to the
        runs already chosen (overlapping runs counted twice): a sweep that
        outgrew it would run in capacity waves and drain tiles the memory
        cache may have no room for, trading the saved exchange for
        restages.  The extra media are ranked by :meth:`_pick_medium`'s
        fairness key, mounted ones included, and each joins whole or not
        at all; the ride-alongs then fill what is left, first fit.  A
        one-drive library takes no extra medium.  Aging escalation never
        calls this, so the oldest demand's medium is served alone and the
        waiting bound is unchanged.
        """
        cache = self.heaven.disk_cache
        drives = self.heaven.library.drives
        budget = cache.capacity_bytes - cache.pinned_bytes
        budget -= sum(demand.run[1] for _task, demand in chosen)
        others: Dict[str, List[Tuple[_QueryTask, _Demand]]] = {}
        for task, demand in pending:
            if demand.medium_id != medium_id:
                others.setdefault(demand.medium_id, []).append((task, demand))
        ranked = sorted(
            others,
            key=lambda m: (min(t.service_s / t.weight for t, _d in others[m]), m),
        )
        taken = {medium_id}
        for other in ranked:
            if len(taken) >= len(drives):
                break
            size = sum(demand.run[1] for _task, demand in others[other])
            if size <= budget:
                budget -= size
                chosen.extend(others[other])
                taken.add(other)
        mounted = {
            drive.medium.medium_id for drive in drives if drive.medium is not None
        }
        for task, demand in pending:
            if (
                demand.medium_id in mounted
                and demand.medium_id not in taken
                and demand.run[1] <= budget
            ):
                budget -= demand.run[1]
                chosen.append((task, demand))

    def _execute_sweep(
        self,
        medium_id: str,
        chosen: Sequence[Tuple[_QueryTask, _Demand]],
    ) -> None:
        heaven = self.heaven
        clock = heaven.clock
        report = self._report
        by_key: Dict[str, List[Tuple[_QueryTask, _Demand]]] = {}
        for task, demand in chosen:
            by_key.setdefault(demand.key, []).append((task, demand))
        holders = {
            key: [(task.ticket, task.needs[key]) for task, _d in demanders]
            for key, demanders in by_key.items()
        }
        fused = staging.fuse_needs(heaven, holders)
        # Planning widens a need's run to what it stages: keep the demand.
        demanded_runs = {key: need.run for key, need in fused.items()}
        media = len({demand.medium_id for _t, demand in chosen})
        sweep_start = clock.now
        cursor = clock.log.cursor()
        with heaven.tracer.span(
            "admission.sweep", medium=medium_id, segments=len(fused)
        ) as span:
            if span.enabled:
                span.set(media=media, queries=len({task.qid for task, _d in chosen}))
            ticket = staging.stage_sweep(heaven, fused, holders)
        self._settle_sweep(by_key, fused, demanded_runs, ticket, sweep_start, cursor)
        report.sweeps += 1
        report.sweep_media.append(media)
        report.fused_segments += len(demanded_runs)
        heaven.admission_sweeps += 1

    def _settle_sweep(
        self,
        by_key: Dict[str, List[Tuple[_QueryTask, _Demand]]],
        fused: Dict[str, _SegmentNeed],
        demanded_runs: Dict[str, Tuple[int, int]],
        ticket: StagingTicket,
        sweep_start: float,
        cursor: int,
    ) -> None:
        """Attribute the sweep's cost and mark demands satisfied."""
        heaven = self.heaven
        clock = heaven.clock
        report = self._report
        requests = ticket.requests
        sweep_elapsed = clock.now - sweep_start
        events = Counter(event.kind for event in clock.log.window(cursor))
        window_bytes = event_window_bytes(clock.log, cursor)
        tasks_by_qid: Dict[int, _QueryTask] = {}
        sweep_tasks: Dict[int, int] = {}
        # -- demands satisfied: wake the waiting tasks.
        now = clock.now
        for key, demanders in by_key.items():
            for task, demand in demanders:
                tasks_by_qid[task.qid] = task
                sweep_tasks[task.qid] = sweep_tasks.get(task.qid, 0) + demand.run[1]
                task.pending.discard(key)
                wait = now - demand.enqueued_s
                task.max_wait_s = max(task.max_wait_s, wait)
                if heaven.instruments is not None:
                    heaven.instruments.observe_admission_wait(wait)
        # -- byte attribution.  A sweep one query demanded is all that
        # query's, prefetch and fault re-reads included (with a truncated
        # event log the staged bytes are the floor).  A shared sweep splits
        # its planned request bytes exactly and keeps any event-log surplus
        # (fault re-reads) and the prefetch requests (keys nobody demanded)
        # in the unattributed bucket.
        if len(sweep_tasks) == 1:
            (qid,) = sweep_tasks
            tasks_by_qid[qid].tape_bytes += max(window_bytes, ticket.bytes_from_tape)
        else:
            shares = attribute_request_bytes(
                [r for r in requests if r.key in by_key]
            )
            prefetch_bytes = sum(
                r.length for r in requests if r.key not in by_key
            )
            surplus = window_bytes - sum(r.length for r in requests)
            report.unattributed_tape_bytes += prefetch_bytes + max(0, surplus)
            for qid, share in shares.items():
                tasks_by_qid[qid].tape_bytes += share
        # -- service attribution: sweep seconds split by demanded bytes;
        # the sweep's events and staging tallies go to every query in it.
        total_demand = sum(sweep_tasks.values())
        for qid in sorted(sweep_tasks):
            task = tasks_by_qid[qid]
            fraction = (
                sweep_tasks[qid] / total_demand
                if total_demand
                else 1.0 / len(sweep_tasks)
            )
            task.service_s += sweep_elapsed * fraction
            task.events.update(events)
            task.staged += ticket.staged
            task.waves += ticket.waves
            task.sweep_pins += ticket.pins
        # -- fusion audit (demanded segments only, in key order: prefetch
        # additions to *fused* have no demanders and no audit row).
        requested_keys = {r.key for r in requests}
        for key, demanded in demanded_runs.items():
            need = fused[key]
            report.audit.append(
                FusionAudit(
                    key=key,
                    medium_id=by_key[key][0][1].medium_id,
                    demanded_run=demanded,
                    staged_run=need.run,
                    queries=need.query_ids,
                    cache_hit=key not in requested_keys,
                    absorbed_cached=need.run != demanded,
                )
            )
        if len(sweep_tasks) == 1:
            return  # a sweep of one query saves nothing
        # -- fusion savings: per streamed segment several queries demanded,
        # their separate runs beyond the one staged; per medium streamed
        # from, one exchange per extra demanding query (unfused, each would
        # have mounted it itself).
        streamed_media = {r.medium_id for r in requests}
        media_queries: Dict[str, Set[int]] = {}
        for key, demanders in by_key.items():
            for task, demand in demanders:
                media_queries.setdefault(demand.medium_id, set()).add(task.qid)
            if key in requested_keys and len(fused[key].query_ids) > 1:
                separate = sum(d.run[1] for _t, d in demanders)
                saved = max(0, separate - fused[key].run[1])
                report.fusion_saved_bytes += saved
                heaven.admission_fusion_saved_bytes += saved
        saved_exchanges = sum(
            len(qids) - 1
            for medium_id, qids in media_queries.items()
            if medium_id in streamed_media
        )
        report.fusion_saved_exchanges += saved_exchanges
        heaven.admission_fusion_saved_exchanges += saved_exchanges
