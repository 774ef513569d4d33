"""Recovery behaviour under injected faults: retry, failover, degradation,
WAL-backed export cleanup — the tentpole's end-to-end guarantees."""

from __future__ import annotations

import pytest

from repro import (
    FaultPlan,
    FaultSpec,
    Heaven,
    HeavenConfig,
    MInterval,
    RetryExhaustedError,
    RetryPolicy,
    recover_incomplete_exports,
)
from repro.arrays import ArrayStorage
from repro.core import EXPORT_SEGMENTS_TABLE, ClusteredPlacement, TCTExporter
from repro.core.admission import AdmissionController, QuerySpec
from repro.core.clustering import Placement
from repro.core.super_tile import star_partition
from repro.dbms import Database
from repro.dbms.wal import LogKind, WriteAheadLog
from repro.arrays import RegularTiling
from repro.tertiary import DLT_7000, HSMSystem, MB, SimClock, TapeLibrary
from repro.workloads import ClimateGrid, climate_object

REGION_A = MInterval.of((30, 59), (15, 29), (2, 3), (3, 5))
REGION_B = MInterval.of((60, 89), (30, 44), (4, 5), (0, 2))

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=1.0)


def faulty_heaven(plan: FaultPlan, **overrides) -> Heaven:
    observability = overrides.pop("observability", None)
    config = HeavenConfig(
        fault_plan=plan,
        num_drives=overrides.pop("num_drives", 2),
        retry_policy=overrides.pop("retry_policy", RetryPolicy()),
        **overrides,
    )
    heaven = Heaven(config, observability=observability)
    heaven.create_collection("c")
    obj = climate_object("t", ClimateGrid(90, 45, 8, 6))
    heaven.insert("c", obj)
    heaven.archive("c", "t")
    heaven.library.unmount_all()
    return heaven


class TestMountRecovery:
    def test_cold_read_survives_mount_failure_via_failover(self):
        """The PR's acceptance scenario: mount fault → retry → failover →
        the read completes, and the fault is visible in report and stats."""
        plan = FaultPlan(seed=3)
        heaven = faulty_heaven(plan)
        plan.fail_next("mount")
        cells, report = heaven.read_with_report("c", "t", REGION_A)
        assert cells.shape == (30, 15, 2, 3)
        assert report.faults >= 1
        assert report.backoffs >= 1
        assert heaven.library.recovery.retries >= 1
        assert heaven.library.recovery.failovers >= 1
        assert plan.stats.count("mount") == 1
        fault_events = [e for e in heaven.clock.log.events() if e.kind == "fault"]
        assert fault_events, "fault penalty must appear as a 'fault' event"

    def test_failed_mount_charges_penalty_time(self):
        plan = FaultPlan()
        heaven = faulty_heaven(plan)
        before = heaven.clock.now
        plan.fail_next("mount")
        heaven.read("c", "t", REGION_A)
        charged = heaven.clock.now - before
        assert charged >= plan.spec.mount_failure_penalty_s

    def test_retry_budget_exhaustion_raises_typed_error(self):
        plan = FaultPlan()
        heaven = faulty_heaven(plan, num_drives=1, retry_policy=FAST_RETRY)
        plan.fail_next("mount", count=FAST_RETRY.max_attempts)
        with pytest.raises(RetryExhaustedError):
            heaven.read("c", "t", REGION_A)
        assert heaven.library.recovery.exhausted >= 1
        # The object is still readable once the faults stop.
        heaven.read("c", "t", REGION_A)

    def test_robot_jam_retried_without_failover(self):
        plan = FaultPlan()
        heaven = faulty_heaven(plan)
        plan.fail_next("robot")
        heaven.read("c", "t", REGION_A)
        assert heaven.library.recovery.retries >= 1
        assert heaven.library.recovery.failovers == 0


class TestMediaRecovery:
    def test_transient_bad_spot_retried(self):
        plan = FaultPlan()
        heaven = faulty_heaven(plan)
        entry = heaven.archived("t")
        segment = entry.super_tiles[0].segment_name
        medium_id, extent = heaven.library.segment(segment)
        heaven.library.medium(medium_id).add_bad_spot(extent.offset, 10)
        cells, report = heaven.read_with_report("c", "t", REGION_A)
        assert cells.size > 0
        assert plan.stats.count("media") >= 1

    def test_permanent_bad_spot_exhausts_retries(self):
        plan = FaultPlan()
        heaven = faulty_heaven(plan, retry_policy=FAST_RETRY)
        entry = heaven.archived("t")
        medium_ids = {st.medium_id for st in entry.super_tiles}
        for medium_id in medium_ids:
            medium = heaven.library.medium(medium_id)
            medium.add_bad_spot(0, medium.capacity, transient=False)
        with pytest.raises(RetryExhaustedError):
            heaven.read("c", "t", REGION_A)


class TestHSMRecovery:
    def make_hsm(self, plan: FaultPlan) -> HSMSystem:
        library = TapeLibrary(
            DLT_7000, num_drives=1, clock=SimClock(), faults=plan,
            retry=FAST_RETRY,
        )
        return HSMSystem(library)

    def test_transient_staging_error_retried(self):
        plan = FaultPlan()
        hsm = self.make_hsm(plan)
        hsm.archive_file("a", 4 * MB)
        plan.fail_next("hsm")
        before = hsm.clock.now
        hsm.stage_file("a")
        assert hsm.is_staged("a")
        assert hsm.stats.stage_faults == 1
        assert hsm.stats.stage_retries == 1
        assert hsm.clock.now - before >= plan.spec.hsm_error_penalty_s

    def test_persistent_staging_error_exhausts(self):
        plan = FaultPlan()
        hsm = self.make_hsm(plan)
        hsm.archive_file("a", 4 * MB)
        plan.fail_next("hsm", count=FAST_RETRY.max_attempts)
        with pytest.raises(RetryExhaustedError):
            hsm.stage_file("a")
        assert not hsm.is_staged("a")


class TestOfflineDegradation:
    def test_warm_cache_read_succeeds_while_offline(self):
        plan = FaultPlan()
        heaven = faulty_heaven(plan)
        heaven.read("c", "t", REGION_A)  # warm the caches
        heaven.library.unmount_all()
        plan.set_offline(True)
        cells, report = heaven.read_with_report("c", "t", REGION_A)
        assert cells.size > 0
        assert report.degraded is True
        assert report.bytes_from_tape == 0
        assert heaven.degraded_reads_served == 1

    def test_warm_cache_admission_read_succeeds_while_offline(self):
        """The admission twin: a query the caches serve while the library
        is offline is flagged degraded exactly like a direct read."""
        plan = FaultPlan()
        heaven = faulty_heaven(plan)
        heaven.read("c", "t", REGION_A)  # warm the caches
        heaven.library.unmount_all()
        plan.set_offline(True)
        (cells,), multi = AdmissionController(heaven).run(
            [QuerySpec(collection="c", object_name="t", region=REGION_A)]
        )
        (report,) = multi.queries
        assert cells.size > 0
        assert report.degraded is True
        assert report.bytes_from_tape == 0
        assert heaven.degraded_reads_served == 1

    def test_cold_read_while_offline_raises_typed_error(self):
        plan = FaultPlan()
        heaven = faulty_heaven(plan, retry_policy=FAST_RETRY)
        plan.set_offline(True)
        with pytest.raises(RetryExhaustedError):
            heaven.read("c", "t", REGION_B)
        # back online: the same read now completes
        plan.set_offline(False)
        heaven.read("c", "t", REGION_B)


class TestFaultMetrics:
    def test_fault_and_retry_metrics_nonzero(self):
        plan = FaultPlan(seed=3)
        heaven = faulty_heaven(plan, observability=True)
        plan.fail_next("mount")
        heaven.read("c", "t", REGION_A)
        heaven.obs.metrics.collect()
        metrics = heaven.obs.metrics
        assert metrics.get("repro_faults_injected_total").value(site="mount") == 1
        assert metrics.get("repro_retries_total").value() >= 1
        assert metrics.get("repro_drive_failovers_total").value() >= 1
        assert metrics.get("repro_backoff_seconds_total").value() > 0
        assert metrics.get("repro_fault_penalty_seconds_total").value() > 0

    def test_degraded_reads_metric(self):
        plan = FaultPlan()
        heaven = faulty_heaven(plan, observability=True)
        heaven.read("c", "t", REGION_A)
        heaven.library.unmount_all()
        plan.set_offline(True)
        heaven.read("c", "t", REGION_A)
        heaven.obs.metrics.collect()
        assert heaven.obs.metrics.get("repro_degraded_reads_total").value() == 1


class TestExportWAL:
    def build_export(self):
        clock = SimClock()
        db = Database(clock)
        storage = ArrayStorage(db)
        library = TapeLibrary(DLT_7000, clock=clock)
        storage.create_collection("c")
        mdd = climate_object("t", ClimateGrid(90, 45, 8, 6),
                             tiling=RegularTiling((30, 15, 4, 3)))
        storage.insert_object("c", mdd)
        exporter = TCTExporter(storage, library, wal=db.wal)
        super_tiles = star_partition(mdd, 256 * 1024)
        assert len(super_tiles) >= 3
        return db, library, exporter, mdd, super_tiles

    def test_successful_export_commits(self):
        db, library, exporter, mdd, super_tiles = self.build_export()
        plan = ClusteredPlacement().plan(super_tiles, library)
        exporter.export(mdd, plan)
        records = db.wal.records_for(-1)
        kinds = [r.kind for r in records]
        assert kinds[0] is LogKind.BEGIN
        assert kinds[-1] is LogKind.COMMIT
        inserts = [r for r in records if r.kind is LogKind.INSERT]
        assert len(inserts) == len(super_tiles)
        assert all(r.table == EXPORT_SEGMENTS_TABLE for r in inserts)
        assert all(library.has_segment(r.after["segment"]) for r in inserts)

    def test_failed_export_rolls_back_half_written_segments(self):
        db, library, exporter, mdd, super_tiles = self.build_export()
        placements = ClusteredPlacement().plan(super_tiles, library)
        # Sabotage a later placement: an unknown medium id fails mid-export.
        placements[2] = Placement(placements[2].super_tile, "no-such-medium")
        with pytest.raises(Exception):
            exporter.export(mdd, placements)
        records = db.wal.records_for(-1)
        assert records[-1].kind is LogKind.ABORT
        written = [r.after["segment"] for r in records
                   if r.kind is LogKind.INSERT]
        assert written, "segments before the failure were journalled"
        assert all(not library.has_segment(s) for s in written)

    def test_recover_incomplete_exports_cleans_crash_leftovers(self):
        db, library, exporter, mdd, super_tiles = self.build_export()
        # Simulate a crash mid-export: segments on tape, WAL open-ended.
        wal = db.wal
        wal.append(-1, LogKind.BEGIN)
        for index in range(2):
            name = f"crashed/st{index}"
            library.write_segment(name, 1024)
            wal.append(-1, LogKind.INSERT, table=EXPORT_SEGMENTS_TABLE,
                       after={"segment": name, "medium_id": "tape-0000",
                              "object": "t"})
        assert recover_incomplete_exports(wal, library) == 2
        assert not library.has_segment("crashed/st0")
        assert not library.has_segment("crashed/st1")
        # Idempotent: the recovery appended the missing ABORT.
        assert recover_incomplete_exports(wal, library) == 0

    def test_recovery_ignores_committed_exports(self):
        db, library, exporter, mdd, super_tiles = self.build_export()
        plan = ClusteredPlacement().plan(super_tiles, library)
        exporter.export(mdd, plan)
        assert recover_incomplete_exports(db.wal, library) == 0
        assert library.has_segment(super_tiles[0].segment_name)

    def test_exporter_without_wal_journals_nothing(self):
        clock = SimClock()
        db = Database(clock)
        storage = ArrayStorage(db)
        library = TapeLibrary(DLT_7000, clock=clock)
        storage.create_collection("c")
        mdd = climate_object("t", ClimateGrid(90, 45, 8, 6))
        storage.insert_object("c", mdd)
        appends_before = db.wal.appends
        exporter = TCTExporter(storage, library)
        super_tiles = star_partition(mdd, 4 * MB)
        exporter.export(mdd, ClusteredPlacement().plan(super_tiles, library))
        assert db.wal.appends == appends_before
