"""Admission and scheduling of concurrent queries over one HEAVEN instance.

The paper's inter-query scheduling (Kapitel 3.4.3) merges the tape
requests of one caller's batch.  This layer takes it to its production
limit: *independent* queries post their staging demands into a shared
per-medium queue, and the controller fuses overlapping super-tile runs
**across queries** into single elevator sweeps.  Every sweep is one
:meth:`~repro.core.heaven.Heaven._staged` pass, the staging pass of every
read: admission only decides which demands share a pass.  Four policies
shape the sweeps:

* **anticipatory hold-back** — a dispatch can wait a bounded virtual-time
  window (``holdback_s``) so queries arriving inside the window
  are absorbed into the same mount instead of paying their own exchange;
* **weighted-fair picking** — the next medium served is the one whose
  neediest demanding query has received the least attributed service per
  unit weight, so a PB-scale scan cannot monopolise the robot;
* **work conservation** — the sweep for the picked medium also serves
  the pending demands on media already sitting in a drive (as many as the
  disk cache's free bytes hold): those cost no exchange now, and a later
  sweep would often find them exchanged out;
* **aging escalation** — once the oldest pending demand has waited more
  than half the configured ``aging_bound_s``, scheduling
  degenerates to strict oldest-first (the oldest demand's medium alone,
  no ride-alongs) until the backlog drains, bounding every demand's wait.

Correctness is anchored on three invariants the test layer proves:

1. any admissible interleaving returns byte-identical cells to serial
   execution (the caches and per-query tickets make staging order
   invisible);
2. no demand waits longer than the aging bound in virtual time;
3. a fused sweep never stages a byte no query demanded (audited per
   segment in :class:`FusionAudit` entries).

Each query owns one :class:`~repro.core.heaven.StagingTicket` from
enqueue to assembly.  Before a sweep's own ticket is released, every
demanding query's ticket takes one pin on each fused segment still in the
disk cache, and one on each tile the sweep had to drain into the memory
tile cache once its segment left the disk cache.  So one query's release
can never unpin bytes another query still needs, and the pins a restage
fallback takes while a query assembles are charged to that query.
Shared tape bytes are split
across queries without double counting
(:func:`~repro.core.scheduler.split_shared_bytes`); the sum of the
per-query reports plus the explicit unattributed remainder equals the
event log's drive-read bytes exactly
(:func:`~repro.obs.reconcile.reconcile_shared_tape_bytes`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..arrays.minterval import MInterval
from ..errors import HeavenError
from .heaven import Heaven, RetrievalReport, StagingTicket, _SegmentNeed, _Unit
from .scheduler import TapeRequest, attribute_request_bytes
from .units import SubReadRequest, SubReadResponse, _answer_nbytes, _unit_response

__all__ = [
    "QuerySpec",
    "FusionAudit",
    "MultiQueryReport",
    "AdmissionController",
]

#: event-log device name of the admission layer's own charges
ADMISSION_DEVICE = "admission"


def _drive_read_bytes(events) -> int:
    """Bytes the drives streamed off tape within an event-log window."""
    return sum(
        e.bytes
        for e in events
        if e.kind == "read" and e.device.startswith("drive")
    )


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


@dataclass(frozen=True)
class FusionAudit:
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


@dataclass
class _Demand:
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
    spec: QuerySpec
    weight: float
    admitted: bool = False
    done: bool = False
    unit: Optional[_Unit] = None
    #: pins held for this query from enqueue until it assembled: resident
    #: tiles it skipped staging for, and what its sweeps handed over
    ticket: Optional[StagingTicket] = None
    #: staging needs collected at enqueue, per segment
    needs: Dict[str, _SegmentNeed] = field(default_factory=dict)
    demands: Dict[str, _Demand] = field(default_factory=dict)
    pending: Set[str] = field(default_factory=set)
    #: attributed sweep service (virtual seconds, weighted-fair currency)
    service_s: float = 0.0
    #: exact share of fused sweep tape bytes (no double counting)
    tape_byte_share: int = 0
    #: sweeps this task's demands were part of
    sweeps: int = 0
    enqueued_s: float = 0.0
    finished_s: float = 0.0
    max_wait_s: float = 0.0
    #: the answer: region cells, or ``{tile_id: clipped cells}`` for a
    #: tile subset
    cells: Union[None, np.ndarray, Dict[int, np.ndarray]] = None
    report: Optional[RetrievalReport] = None


@dataclass
class MultiQueryReport:
    """Cost summary of one concurrent multi-query run."""

    #: per-query cost reports, in submission order
    queries: List[RetrievalReport] = field(default_factory=list)
    #: per-query sojourn (arrival -> finish) in virtual seconds
    latencies_s: List[float] = field(default_factory=list)
    #: fused sweeps dispatched
    sweeps: int = 0
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
    ) -> Tuple[List[np.ndarray], MultiQueryReport]:
        """Run *specs* to completion; per-query cells + combined report."""
        heaven = self.heaven
        clock = heaven.clock
        self._report = MultiQueryReport(log_cursor_start=clock.log.cursor())
        if not specs:
            return [], self._report
        self._tasks = [
            _QueryTask(
                qid=index + 1,
                spec=spec,
                weight=1.0 if spec.weight is None else spec.weight,
            )
            for index, spec in enumerate(specs)
        ]
        self._order = list(self._tasks)
        if self.schedule_seed is not None:
            random.Random(self.schedule_seed).shuffle(self._order)
        start_s = clock.now
        try:
            with heaven.tracer.span(
                "admission.run", always=True, queries=len(specs)
            ):
                self._loop()
        except BaseException:
            # A typed storage failure mid-run (offline library, retry
            # budget spent) must not leak the queries' pins: quiescence is
            # part of the contract even on the error path.
            for task in self._tasks:
                if task.ticket is not None:
                    task.ticket.release()
            raise
        report = self._report
        report.makespan_s = clock.now - start_s
        window = clock.log.window(report.log_cursor_start)
        report.exchanges = sum(1 for e in window if e.kind == "load")
        report.bytes_from_tape = _drive_read_bytes(window)
        report.queries = [task.report for task in self._tasks]  # type: ignore[misc]
        # Counted here, not as each query finishes: a run that raises hands
        # out no report, and its units are served (and counted) again.
        for query in report.queries:
            heaven.read_tiles_needed += query.tiles_needed
            heaven.read_bytes_useful += query.bytes_useful
        report.latencies_s = [
            task.finished_s - task.spec.arrival_s for task in self._tasks
        ]
        report.max_wait_s = max(
            (task.max_wait_s for task in self._tasks), default=0.0
        )
        outputs = [task.cells for task in self._tasks]
        assert all(cells is not None for cells in outputs)
        return outputs, report  # type: ignore[return-value]

    def run_units(
        self, units: Sequence[SubReadRequest]
    ) -> Tuple[List[SubReadResponse], MultiQueryReport]:
        """Answer serializable sub-read units as concurrent queries.

        The data-node fusion path of the service tier: every unit becomes
        one admission query (tile-subset queries for the sharded form),
        their staging fuses into shared sweeps, and each response carries
        that unit's EXACT byte attribution (``tape_byte_share`` — no
        cross-tenant leakage) in its stats.  Units are admitted at the
        current clock, so per-unit ``virtual_seconds`` is pure service
        time; open-loop arrival accounting is the cluster's job.
        """
        if not units:
            return [], MultiQueryReport(
                log_cursor_start=self.heaven.clock.log.cursor()
            )
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
            _unit_response(unit, task.unit.mdd, cells, query_report, shared=False)
            for unit, task, cells, query_report in zip(
                units, self._tasks, outputs, report.queries
            )
        ]
        return responses, report

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
            future = [
                task.spec.arrival_s
                for task in self._tasks
                if not task.admitted
            ]
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
            if not task.admitted and task.spec.arrival_s <= now:
                task.admitted = True
                self._enqueue(task)
                if not task.pending:
                    self._assemble(task)

    # ------------------------------------------------------------------ query life

    def _enqueue(self, task: _QueryTask) -> None:
        """Resolve the query's unit, collect its needs once, and post one
        staging demand per tape segment."""
        heaven = self.heaven
        spec = task.spec
        unit = task.unit = heaven._resolve_unit(
            spec.collection, spec.object_name, spec.region, spec.tile_ids
        )
        task.ticket = StagingTicket(
            cache=heaven.disk_cache, memory=heaven.memory_cache
        )
        task.needs = heaven.collect_needs(
            [(unit.mdd, unit.cover)], task.ticket.tile_pins
        )
        task.enqueued_s = heaven.clock.now
        for key, need in sorted(task.needs.items()):
            medium_id, _segment = heaven.library.segment(key)
            task.demands[key] = _Demand(
                key=key,
                medium_id=medium_id,
                run=heaven._required_run(need.super_tile, need.tile_ids),
                enqueued_s=task.enqueued_s,
            )
        task.pending = set(task.demands)

    def _assemble(self, task: _QueryTask) -> None:
        """Assemble the query's unit with its ticket active, release the
        ticket and seal the query's report.

        Everything charged between the cursor and the end of the read
        belongs to this query alone (restage fallbacks, memory cache misses
        re-staged from tape, ...), and so do the pins a restage takes.
        """
        heaven = self.heaven
        clock = heaven.clock
        spec = task.spec
        unit, ticket = task.unit, task.ticket
        assert unit is not None and ticket is not None
        cursor = clock.log.cursor()
        with heaven._holding(ticket):
            with heaven.tracer.span(
                "admission.assemble", query=task.qid, object=spec.object_name
            ) as span:
                task.cells = heaven._assemble_unit(unit)
        heaven._observe_assemble_wall(span)
        window = clock.log.window(cursor)
        task.finished_s = clock.now
        # Not Heaven._report_from_span: this query's tape bytes are its
        # attributed share of fused sweeps plus its own assembly window,
        # and its latency runs from its arrival.
        task.report = RetrievalReport(
            object_name=spec.label,
            region=str(spec.region),
            tiles_needed=len(unit.cover),
            super_tiles_staged=len(task.demands),
            bytes_from_tape=task.tape_byte_share + _drive_read_bytes(window),
            bytes_useful=_answer_nbytes(task.cells),
            exchanges=sum(1 for e in window if e.kind == "load"),
            virtual_seconds=clock.now - spec.arrival_s,
            restages=sum(1 for e in window if e.kind == "restage"),
            pins=ticket.pins,
            waves=task.sweeps,
        )
        heaven._note_degradation(task.report, [unit.mdd])
        task.done = True

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
        best: Optional[Tuple[float, str]] = None
        for task, demand in pending:
            need = task.service_s / task.weight
            candidate = (need, demand.medium_id)
            if best is None or candidate < best:
                best = candidate
        assert best is not None
        return best[1]

    def _dispatch_sweep(self) -> None:
        """Fuse all pending demands on the picked medium, plus the ones on
        media already in a drive that fit the disk cache, into one sweep."""
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
        chosen = [
            (task, demand)
            for task, demand in pending
            if demand.medium_id == medium_id
        ]
        if not escalated:
            self._add_ride_alongs(medium_id, pending, chosen)
        self._execute_sweep(medium_id, chosen)

    def _add_ride_alongs(
        self,
        medium_id: str,
        pending: Sequence[Tuple[_QueryTask, _Demand]],
        chosen: List[Tuple[_QueryTask, _Demand]],
    ) -> None:
        """Work conservation: add to *chosen* the pending demands on media
        already in a drive, which cost no exchange now.

        Only demands that fit the disk cache's free bytes next to the ones
        already chosen ride along (first fit, overlapping runs counted
        twice): a ride-along that forced the sweep into capacity waves
        would drain tiles the memory cache may have no room for, trading
        the saved exchange for restages.  Aging escalation never calls
        this, so the oldest demand's medium is served alone and the
        waiting bound is unchanged.
        """
        cache = self.heaven.disk_cache
        mounted = {
            drive.medium.medium_id
            for drive in self.heaven.library.drives
            if drive.medium is not None and drive.medium.medium_id != medium_id
        }
        budget = cache.capacity_bytes - cache.pinned_bytes
        budget -= sum(demand.run[1] for _task, demand in chosen)
        for task, demand in pending:
            if demand.medium_id in mounted and demand.run[1] <= budget:
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
        # Fuse: union the demanding queries' collected needs per segment.
        by_key: Dict[str, List[Tuple[_QueryTask, _Demand]]] = {}
        for task, demand in chosen:
            by_key.setdefault(demand.key, []).append((task, demand))
        fused: Dict[str, _SegmentNeed] = {}
        for key in sorted(by_key):
            needs = [task.needs[key] for task, _d in by_key[key]]
            fused[key] = _SegmentNeed(
                super_tile=needs[0].super_tile,
                entry=needs[0].entry,
                mdd=needs[0].mdd,
                tile_ids=sorted({t for need in needs for t in need.tile_ids}),
                query_ids=tuple(sorted({task.qid for task, _d in by_key[key]})),
            )
        demanded_unions = {
            key: heaven._required_run(need.super_tile, need.tile_ids)
            for key, need in fused.items()
        }
        sweep_start = clock.now
        cursor = clock.log.cursor()
        with heaven.tracer.span(
            "admission.sweep",
            always=True,
            medium=medium_id,
            media=len({demand.medium_id for _t, demand in chosen}),
            segments=len(fused),
            queries=len({task.qid for task, _d in chosen}),
        ):
            with heaven._staged((), needs=fused) as ticket:
                self._hand_over_pins(by_key, ticket.tile_pins)
        self._settle_sweep(
            by_key,
            fused,
            demanded_unions,
            ticket.requests,
            sweep_elapsed=clock.now - sweep_start,
            window_bytes=_drive_read_bytes(clock.log.window(cursor)),
        )
        report.sweeps += 1
        report.fused_segments += len(demanded_unions)
        heaven.admission_sweeps += 1

    def _hand_over_pins(
        self,
        by_key: Dict[str, List[Tuple[_QueryTask, _Demand]]],
        drained: Sequence[Tuple[str, int]],
    ) -> None:
        """Pin what the sweep staged onto each demanding query's ticket.

        One disk-cache pin per demanding query per fused segment still in
        the disk cache, and one memory-cache pin per demanding query per
        tile in *drained* whose segment left the disk cache: the tiles
        non-final waves drained (or a fully-pinned disk cache salvaged)
        into the memory tile cache.  The sweep's own ticket pins those only
        until the sweep ends, and a query still waiting on another sweep
        would otherwise find them evicted and restage.  A drained segment
        still on disk is held instead, which leaves the memory cache room
        for later sweeps.  Sequential-prefetch segments are in no demand,
        so nobody holds them.
        """
        heaven = self.heaven
        held = [key for key in sorted(by_key) if key in heaven.disk_cache]
        for key in held:
            for task, _demand in by_key[key]:
                task.ticket.hold(key)
        demanders: Dict[Tuple[str, int], List[_QueryTask]] = {}
        for key, pairs in by_key.items():
            if key in held:
                continue
            for task, _demand in pairs:
                need = task.needs[key]
                for tile_id in need.tile_ids:
                    demanders.setdefault((need.mdd.name, tile_id), []).append(task)
        for tile_key in drained:
            for task in demanders.get(tile_key, ()):
                heaven.memory_cache.pin(*tile_key)
                task.ticket.tile_pins.append(tile_key)

    def _settle_sweep(
        self,
        by_key: Dict[str, List[Tuple[_QueryTask, _Demand]]],
        fused: Dict[str, _SegmentNeed],
        demanded_unions: Dict[str, Tuple[int, int]],
        requests: Sequence[TapeRequest],
        *,
        sweep_elapsed: float,
        window_bytes: int,
    ) -> None:
        """Attribute the sweep's cost and mark demands satisfied."""
        heaven = self.heaven
        clock = heaven.clock
        report = self._report
        requested_keys = {r.key for r in requests}
        # -- byte attribution: exact split of planned request bytes, with
        # any event-log surplus (fault re-reads, prefetch) kept explicit.
        # Prefetch requests (keys nobody demanded) go to the unattributed
        # bucket wholesale.
        shares = attribute_request_bytes(
            [r for r in requests if r.key in by_key]
        )
        prefetch_bytes = sum(
            r.length for r in requests if r.key not in by_key
        )
        planned_total = sum(r.length for r in requests)
        surplus = window_bytes - planned_total
        report.unattributed_tape_bytes += (
            shares.pop(0, 0) + prefetch_bytes + max(0, surplus)
        )
        tasks_by_qid = {task.qid: task for task in self._tasks}
        for qid, share in shares.items():
            tasks_by_qid[qid].tape_byte_share += share
        # -- service attribution: sweep seconds split by demanded bytes.
        sweep_tasks: Dict[int, int] = {}
        for key, demanders in by_key.items():
            for task, demand in demanders:
                sweep_tasks[task.qid] = (
                    sweep_tasks.get(task.qid, 0) + demand.run[1]
                )
        total_demand = sum(sweep_tasks.values())
        for qid in sorted(sweep_tasks):
            task = tasks_by_qid[qid]
            fraction = (
                sweep_tasks[qid] / total_demand
                if total_demand
                else 1.0 / len(sweep_tasks)
            )
            task.service_s += sweep_elapsed * fraction
            task.sweeps += 1
        # -- fusion audit + savings (demanded segments only: prefetch
        # additions to *fused* have no demanders and no audit row).
        for key in sorted(demanded_unions):
            demanders = by_key[key]
            qids = tuple(sorted({task.qid for task, _d in demanders}))
            staged_run = fused[key].run
            cache_hit = key not in requested_keys
            demanded = demanded_unions[key]
            audit = FusionAudit(
                key=key,
                medium_id=demanders[0][1].medium_id,
                demanded_run=demanded,
                staged_run=staged_run,
                queries=qids,
                cache_hit=cache_hit,
                absorbed_cached=staged_run != demanded,
            )
            report.audit.append(audit)
            if not cache_hit and len(qids) > 1:
                separate = sum(d.run[1] for _t, d in demanders)
                saved = max(0, separate - staged_run[1])
                report.fusion_saved_bytes += saved
                heaven.admission_fusion_saved_bytes += saved
        # One exchange saved per extra query on each medium the sweep
        # streamed from: unfused, each would have mounted it itself.
        streamed_media = {r.medium_id for r in requests}
        media_queries: Dict[str, Set[int]] = {}
        for demanders in by_key.values():
            for task, demand in demanders:
                media_queries.setdefault(demand.medium_id, set()).add(task.qid)
        saved_exchanges = sum(
            len(qids) - 1
            for medium_id, qids in media_queries.items()
            if medium_id in streamed_media
        )
        report.fusion_saved_exchanges += saved_exchanges
        heaven.admission_fusion_saved_exchanges += saved_exchanges
        # -- demands satisfied: wake the waiting tasks.
        now = clock.now
        for key, demanders in by_key.items():
            for task, demand in demanders:
                task.pending.discard(key)
                wait = now - demand.enqueued_s
                task.max_wait_s = max(task.max_wait_s, wait)
                if heaven.instruments is not None:
                    heaven.instruments.observe_admission_wait(wait)
