"""Lockstep execution of a workload program against HEAVEN and the oracle.

The :class:`SimRunner` builds one full HEAVEN stack (virtual time, tape
library, both cache tiers, fault plan, observability on) from a program's
:class:`~repro.simtest.program.SimConfig`, then applies the program's
operations one by one — mirroring every data-changing effect into the
trivial :class:`~repro.simtest.reference.ReferenceModel` — and checks the
invariant battery after each step:

1. **byte identity** of every returned array against the oracle;
2. **conservation**: quiescence (no leaked pins, no active timeline,
   caches within capacity), per-drive and global clock monotonicity,
   `RetrievalReport` fields reconciling with metric deltas and the
   event-log window;
3. **no thrash**: `repro_restages_total` must not grow within one op.

Operations whose preconditions don't hold (object missing after the
shrinker deleted its ingest, duplicate archive, ...) are *skipped*, which
keeps programs closed under deletion.  Operations that fail inside the
storage stack with a typed error (library offline, retry budget spent)
are recorded as ``failed-op`` — expected behaviour under fault injection,
not a violation.  A failed ``update`` or ``archive`` rolls back inside the
stack, so the oracle keeps the old value and later steps check against it.

Seeded mutations (``mutate="oracle-flip"`` / ``"pin-leak"``) deliberately
break the stack-vs-oracle contract so the harness can prove it catches
and shrinks real bugs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..arrays import DOUBLE, MDD, HashedNoiseSource, MInterval, RegularTiling
from ..core.admission import RetrievalReport
from ..core.config import HeavenConfig
from ..core.framing import MultiBoxFrame
from ..core.heaven import Heaven
from ..errors import HeavenError, StorageError
from ..faults import FaultPlan, FaultSpec, compose_specs
from ..obs.reconcile import (
    metrics_delta,
    metrics_snapshot,
    reconcile_report,
    reconcile_shared_tape_bytes,
    reconcile_tape_bytes,
)
from ..tertiary.profiles import DLT_7000, scaled_profile
from .invariants import (
    check_clock_monotonic,
    check_global_clock,
    check_no_restage_growth,
    check_quiescent,
    oracle_mismatch,
)
from .program import KB, Op, WorkloadProgram
from .reference import ReferenceModel

#: named fault mixins a SimConfig can compose into its random fault spec
MIXIN_SPECS: Dict[str, FaultSpec] = {
    "mount": FaultSpec(mount_failure_rate=0.04, mount_failure_penalty_s=5.0),
    "media": FaultSpec(media_error_rate=0.03, media_error_penalty_s=2.0),
    "stall": FaultSpec(drive_stall_rate=0.08, drive_stall_max_s=4.0),
}

#: supported seeded-bug mutations (see module docstring)
MUTATIONS: Tuple[str, ...] = ("oracle-flip", "pin-leak")


@dataclass(frozen=True)
class Violation:
    """One broken invariant, attributed to the operation that tripped it."""

    op_index: int
    op: str
    invariant: str
    detail: str

    def describe(self) -> str:
        return f"op[{self.op_index}] {self.op}: [{self.invariant}] {self.detail}"


@dataclass(frozen=True)
class StepResult:
    """Outcome of one applied operation."""

    index: int
    kind: str
    status: str  # "ok" | "skipped" | "failed-op"
    detail: str = ""


@dataclass
class SimResult:
    """Everything one simulation run produced."""

    program: WorkloadProgram
    steps: List[StepResult]
    violations: List[Violation]
    #: digest over every simulator event (time, duration, kind, device,
    #: detail, bytes) — two runs of the same program must agree exactly
    event_digest: str = ""
    #: digest over every RetrievalReport the run produced
    report_digest: str = ""
    final_virtual_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        applied = sum(1 for s in self.steps if s.status == "ok")
        skipped = sum(1 for s in self.steps if s.status == "skipped")
        failed = sum(1 for s in self.steps if s.status == "failed-op")
        return (
            f"{len(self.steps)} ops ({applied} applied, {skipped} skipped, "
            f"{failed} failed-op), {len(self.violations)} violation(s), "
            f"t={self.final_virtual_seconds:.1f}s virtual, "
            f"events={self.event_digest[:12]}"
        )


class SimRunner:
    """Execute one :class:`WorkloadProgram` with full invariant checking."""

    def __init__(
        self, program: WorkloadProgram, mutate: Optional[str] = None
    ) -> None:
        if mutate is not None and mutate not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutate!r}; known: {MUTATIONS}")
        self.program = program
        self.mutate = mutate
        self._pin_leaked = False
        cfg = program.config
        mixins = [MIXIN_SPECS[name] for name in cfg.fault_mixins]
        spec = compose_specs(*mixins) if mixins else FaultSpec()
        self.plan = FaultPlan(seed=program.seed, spec=spec)
        self.heaven = Heaven(
            HeavenConfig(
                tape_profile=scaled_profile(DLT_7000, cfg.media_kb * KB),
                num_drives=cfg.num_drives,
                super_tile_bytes=cfg.super_tile_kb * KB,
                disk_cache_bytes=cfg.disk_cache_kb * KB,
                disk_cache_policy=cfg.policy,
                memory_cache_bytes=cfg.memory_cache_kb * KB,
                compression=cfg.compression,
                partial_super_tile_reads=cfg.partial_reads,
                scheduling=cfg.scheduling,
                prefetch=cfg.prefetch,
                fault_plan=self.plan,
            ),
            observability=True,
        )
        self.reference = ReferenceModel()
        self._collections: Set[str] = set()
        self._drive_clock: Dict[str, float] = {}
        self._events = hashlib.sha256()
        self._reports = hashlib.sha256()
        self.violations: List[Violation] = []
        self.steps: List[StepResult] = []

    # -- public API ----------------------------------------------------------

    def run(self) -> SimResult:
        for index, op in enumerate(self.program.ops):
            self._step(index, op)
        log = self.heaven.clock.log
        for event in log.window(0):
            self._events.update(
                f"{event.time!r}|{event.duration!r}|{event.kind}|"
                f"{event.device}|{event.detail}|{event.bytes}\n".encode()
            )
        return SimResult(
            program=self.program,
            steps=self.steps,
            violations=self.violations,
            event_digest=self._events.hexdigest(),
            report_digest=self._reports.hexdigest(),
            final_virtual_seconds=self.heaven.clock.now,
        )

    # -- one step ------------------------------------------------------------

    def _step(self, index: int, op: Op) -> None:
        heaven = self.heaven
        log = heaven.clock.log
        cursor = log.cursor()
        now_before = heaven.clock.now
        restages_before = heaven.restages
        faults_before = heaven.library.faults.stats.total

        status, detail, report, window_reconcile = self._apply(index, op)
        self.steps.append(StepResult(index, op.kind, status, detail))

        self._check_mutation_hook(index, op, status)

        window = log.window(cursor)
        for problem in check_clock_monotonic(window, self._drive_clock):
            self._violate(index, op, "clock-monotonic", problem)
        problem = check_global_clock(now_before, heaven.clock.now)
        if problem:
            self._violate(index, op, "clock-monotonic", problem)
        problem = check_quiescent(heaven)
        if problem:
            self._violate(index, op, "quiescence", problem)
        problem = check_no_restage_growth(restages_before, heaven.restages)
        if problem:
            self._violate(index, op, "restage", problem)
        if report is not None and status == "ok":
            self._reports.update(f"{index}|{report!r}\n".encode())
            if window_reconcile is not None:
                delta = metrics_delta(window_reconcile, metrics_snapshot(
                    heaven.obs.metrics
                ))
                # A mount fault charges the robot's exchange but aborts the
                # drive load the report's span window counts, so the two
                # exchange tallies legitimately differ on faulted reads.
                skip = ("exchanges",) if (
                    heaven.library.faults.stats.total > faults_before
                ) else ()
                for problem in reconcile_report(report, delta, skip=skip):
                    self._violate(index, op, "reconcile", problem)
                problem = reconcile_tape_bytes(report, log, cursor)
                if problem:
                    self._violate(index, op, "reconcile", problem)

    def _violate(self, index: int, op: Op, invariant: str, detail: str) -> None:
        self.violations.append(Violation(index, op.describe(), invariant, detail))

    def _check_mutation_hook(self, index: int, op: Op, status: str) -> None:
        """Fire the ``pin-leak`` seeded bug once the cache has an entry."""
        if (
            self.mutate == "pin-leak"
            and not self._pin_leaked
            and status == "ok"
            and self.heaven.disk_cache.keys()
        ):
            self.heaven.disk_cache.pin(sorted(self.heaven.disk_cache.keys())[0])
            self._pin_leaked = True

    # -- op dispatch ---------------------------------------------------------

    def _apply(
        self, index: int, op: Op
    ) -> Tuple[str, str, Optional[RetrievalReport], Optional[Dict[str, float]]]:
        """Apply one op; returns (status, detail, report, metrics_before)."""
        handler = getattr(self, f"_op_{op.kind}", None)
        if handler is None:
            return "skipped", f"unknown op kind {op.kind!r}", None, None
        try:
            return handler(index, op.params)
        except (StorageError, HeavenError) as exc:
            # Typed storage failure (offline library, retry budget spent,
            # unevictable cache, ...) — expected under fault injection.
            return "failed-op", f"{type(exc).__name__}: {exc}", None, None

    # Each handler returns (status, detail, report, metrics_before) and may
    # raise typed storage errors (handled by _apply).

    def _op_ingest(self, index: int, p: Dict):
        collection, name = str(p["collection"]), str(p["object"])
        side, tile = int(p["side"]), int(p["tile"])
        if self.reference.exists(collection, name):
            return "skipped", "object already exists", None, None
        if collection not in self._collections:
            self.heaven.create_collection(collection)
            self._collections.add(collection)
        domain = MInterval.of((0, side - 1), (0, side - 1))
        mdd = MDD(
            name,
            domain,
            DOUBLE,
            tiling=RegularTiling((tile, tile)),
            source=HashedNoiseSource(int(p["source_seed"])),
        )
        self.heaven.insert(collection, mdd)
        self.reference.ingest(collection, name, side, int(p["source_seed"]))
        return "ok", f"{side}x{side} double", None, None

    def _op_archive(self, index: int, p: Dict):
        collection, name = str(p["collection"]), str(p["object"])
        if not self.reference.exists(collection, name):
            return "skipped", "object not available", None, None
        if self.heaven.is_archived(name):
            return "skipped", "already archived", None, None
        report = self.heaven.archive(
            collection, name, keep_disk_copy=bool(p.get("keep_disk_copy"))
        )
        return "ok", f"{report.segments_written} segments", None, None

    def _op_read(self, index: int, p: Dict):
        collection, name = str(p["collection"]), str(p["object"])
        if not self.reference.exists(collection, name):
            return "skipped", "object not available", None, None
        region = MInterval.parse(str(p["region"]))
        expected = self.reference.read(collection, name, region)
        before = metrics_snapshot(self.heaven.obs.metrics)
        cells, report = self.heaven.read_with_report(collection, name, region)
        cells = self._maybe_flip(cells)
        problem = oracle_mismatch(expected, cells, what=f"read {region}")
        if problem:
            self._violate(index, Op("read", p), "oracle", problem)
        return "ok", str(region), report, before

    def _op_frame_read(self, index: int, p: Dict):
        collection, name = str(p["collection"]), str(p["object"])
        if not self.reference.exists(collection, name):
            return "skipped", "object not available", None, None
        boxes = [MInterval.parse(str(b)) for b in p["boxes"]]
        fill = float(p["fill"])
        expected = self.reference.read_frame(collection, name, boxes, fill)
        if expected is None:
            return "skipped", "frame outside domain", None, None
        marray, mask = self.heaven.read_frame(
            collection, name, MultiBoxFrame(boxes), fill=fill
        )
        cells = self._maybe_flip(marray.cells)
        problem = oracle_mismatch(expected[0], cells, what="frame cells")
        if problem:
            self._violate(index, Op("frame_read", p), "oracle", problem)
        problem = oracle_mismatch(expected[1], mask, what="frame mask")
        if problem:
            self._violate(index, Op("frame_read", p), "oracle", problem)
        return "ok", f"{len(boxes)} box(es)", None, None

    def _op_read_many(self, index: int, p: Dict):
        requests = [
            (str(c), str(o), MInterval.parse(str(r))) for c, o, r in p["requests"]
        ]
        if not all(self.reference.exists(c, o) for c, o, _r in requests):
            return "skipped", "some objects not available", None, None
        expected = [
            self.reference.read(c, o, region) for c, o, region in requests
        ]
        before = metrics_snapshot(self.heaven.obs.metrics)
        outputs, report = self.heaven.read_many(requests)
        for position, (want, got) in enumerate(zip(expected, outputs)):
            got = self._maybe_flip(got) if position == 0 else got
            problem = oracle_mismatch(
                want, got, what=f"read_many[{position}]"
            )
            if problem:
                self._violate(index, Op("read_many", p), "oracle", problem)
        return "ok", f"batch of {len(requests)}", report, before

    def _op_concurrent(self, index: int, p: Dict):
        """2-8 overlapping queries through the admission layer.

        Every query's cells are checked against the oracle (byte identity
        is interleaving-independent), and the per-query tape-byte split of
        fused sweeps must reconcile exactly with the event-log window.
        """
        from ..core.admission import AdmissionController, QuerySpec

        queries = [
            (str(c), str(o), MInterval.parse(str(r)), float(a), float(w))
            for c, o, r, a, w in p["queries"]
        ]
        if not all(self.reference.exists(c, o) for c, o, _r, _a, _w in queries):
            return "skipped", "some objects not available", None, None
        expected = [
            self.reference.read(c, o, region)
            for c, o, region, _a, _w in queries
        ]
        now = self.heaven.clock.now
        specs = [
            QuerySpec(
                collection=c,
                object_name=o,
                region=region,
                arrival_s=now + arrival,
                weight=weight,
                name=f"{o}#{position}",
            )
            for position, (c, o, region, arrival, weight) in enumerate(queries)
        ]
        aging = float(p.get("aging_bound_s", 0.0)) or None
        controller = AdmissionController(
            self.heaven,
            holdback_s=float(p.get("holdback_s", 0.0)),
            aging_bound_s=aging,
            schedule_seed=int(p.get("schedule_seed", 0)),
        )
        outputs, report = controller.run(specs)
        for position, (want, got) in enumerate(zip(expected, outputs)):
            got = self._maybe_flip(got) if position == 0 else got
            problem = oracle_mismatch(
                want, got, what=f"concurrent[{position}]"
            )
            if problem:
                self._violate(index, Op("concurrent", p), "oracle", problem)
        problem = reconcile_shared_tape_bytes(
            report.queries,
            self.heaven.clock.log,
            report.log_cursor_start,
            unattributed=report.unattributed_tape_bytes,
        )
        if problem:
            self._violate(index, Op("concurrent", p), "reconcile", problem)
        return "ok", f"{len(specs)} queries, {report.sweeps} sweep(s)", None, None

    def _op_service(self, index: int, p: Dict):
        """Concurrent multi-tenant reads through the SN/DN service tier.

        The data nodes share this run's HEAVEN instance (oracle mode), so
        every service answer must be byte-identical to the reference
        model, and the tenant registry's byte charges must equal the cell
        bytes of each tenant's own answers (no cross-tenant leakage, no
        charge for cells outside the region).
        """
        from ..errors import ServiceError
        from ..service import ServiceCluster

        queries = [
            (str(c), str(o), MInterval.parse(str(r)))
            for c, o, r in p["queries"]
        ]
        if not all(self.reference.exists(c, o) for c, o, _r in queries):
            return "skipped", "some objects not available", None, None
        expected = [
            self.reference.read(c, o, region) for c, o, region in queries
        ]
        nodes = max(1, int(p.get("nodes", 2)))
        tenants = max(1, int(p.get("tenants", 1)))
        objects = sorted({(c, o) for c, o, _r in queries})
        try:
            cluster = ServiceCluster.over(
                self.heaven, nodes=nodes, objects=objects
            )
        except (ServiceError, HeavenError) as exc:
            return "failed-op", f"{type(exc).__name__}: {exc}", None, None
        for tenant in range(tenants):
            cluster.register_tenant(f"t{tenant}")
        plan = [
            (f"token-t{position % tenants}", c, o, str(region), 0.0)
            for position, (c, o, region) in enumerate(queries)
        ]
        try:
            results = cluster.read_many(plan)
        except ServiceError as exc:
            # A data node exhausted its retry budget (fault injection) and
            # the service node propagated the typed error — expected.
            return "failed-op", f"{type(exc).__name__}: {exc}", None, None
        for position, (want, result) in enumerate(zip(expected, results)):
            got = self._maybe_flip(result.cells) if position == 0 else result.cells
            problem = oracle_mismatch(want, got, what=f"service[{position}]")
            if problem:
                self._violate(index, Op("service", p), "oracle", problem)
        # Byte-attribution reconciliation: what each tenant was charged
        # must equal the cell bytes of exactly its own answers (data nodes
        # clip tiles to the region, so a tenant pays for nothing else).
        charged_per_tenant: Dict[str, int] = {}
        for (token, _c, _o, _r, _a), result in zip(plan, results):
            name = token.removeprefix("token-")
            charged_per_tenant[name] = (
                charged_per_tenant.get(name, 0) + int(result.cells.nbytes)
            )
        for name, want_bytes in sorted(charged_per_tenant.items()):
            usage = cluster.tenants.usage(name)
            if usage.bytes_charged != want_bytes:
                self._violate(
                    index,
                    Op("service", p),
                    "reconcile",
                    f"tenant {name}: registry charged "
                    f"{usage.bytes_charged} B, results total {want_bytes} B",
                )
        return "ok", f"{len(queries)} queries over {nodes} node(s)", None, None

    def _op_update(self, index: int, p: Dict):
        collection, name = str(p["collection"]), str(p["object"])
        if not self.reference.exists(collection, name):
            return "skipped", "object not available", None, None
        region = MInterval.parse(str(p["region"]))
        cells = HashedNoiseSource(int(p["value_seed"])).region(region, DOUBLE)
        self.heaven.update(collection, name, region, cells)
        # Mirror into the oracle only after the stack committed; a failed
        # update rolls back, so the oracle keeps the old value.
        self.reference.write(collection, name, region, cells)
        return "ok", str(region), None, None

    def _op_reimport(self, index: int, p: Dict):
        collection, name = str(p["collection"]), str(p["object"])
        if not self.reference.exists(collection, name):
            return "skipped", "object not available", None, None
        if not self.heaven.is_archived(name):
            return "skipped", "not archived", None, None
        tiles = self.heaven.reimport(collection, name)
        return "ok", f"{tiles} tiles", None, None

    def _op_delete(self, index: int, p: Dict):
        collection, name = str(p["collection"]), str(p["object"])
        if not self.reference.exists(collection, name):
            return "skipped", "object not available", None, None
        self.heaven.delete(collection, name)
        self.reference.delete(collection, name)
        return "ok", "", None, None

    def _op_cache_resize(self, index: int, p: Dict):
        new_bytes = int(p["disk_cache_kb"]) * KB
        evicted = self.heaven.disk_cache.resize(new_bytes)
        return "ok", f"{new_bytes} B ({evicted} evicted)", None, None

    def _op_fault(self, index: int, p: Dict):
        self.plan.fail_next(str(p["site"]), count=int(p.get("count", 1)))
        return "ok", f"fail_next {p['site']}", None, None

    def _op_offline(self, index: int, p: Dict):
        self.plan.set_offline(bool(p["offline"]))
        return "ok", f"offline={bool(p['offline'])}", None, None

    # -- mutation ------------------------------------------------------------

    def _maybe_flip(self, cells: np.ndarray) -> np.ndarray:
        """``oracle-flip`` seeded bug: corrupt one byte of a returned array."""
        if self.mutate != "oracle-flip" or cells.size == 0:
            return cells
        corrupted = np.array(cells, copy=True)
        view = corrupted.view(np.uint8)
        view.flat[0] ^= 0xFF
        return corrupted


def run_program(
    program: WorkloadProgram, mutate: Optional[str] = None
) -> SimResult:
    """Build a fresh runner and execute *program* start to finish."""
    return SimRunner(program, mutate=mutate).run()


def replay_json(text: str, mutate: Optional[str] = None) -> SimResult:
    """Run a JSON-serialised program (the repro-script entry point)."""
    return run_program(WorkloadProgram.from_json(text), mutate=mutate)
