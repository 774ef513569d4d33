"""Invariants of the discrete-event parallel executor (hypothesis + unit).

The executor's claims are checked on *executed* batches, not estimates:

* makespan is bracketed by the device work:
  ``makespan <= serial_device_seconds <= drives * makespan``, and every
  visit's executed cost stays within the cost model's tolerance;
* every request of a batch is served exactly once;
* the event-log window decomposes exactly into per-drive busy time plus
  robot-wait time (nothing double-charged, nothing lost);
* the executor is the serial loop overlapped: against ``read_extent``
  called request by request on a twin library it makes the same mounts,
  exchanges, reads and seeks, lands in the same order, leaves the drives
  in the same state and never takes longer;
* a visit whose executed cost disagrees with the cost model raises,
  unless a fault fell inside it;
* a fixed-seed workload returns byte-identical arrays from a two-drive
  library staging through the executor, the same library staging
  serially, and a one-drive library.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import (
    ElevatorScheduler,
    FIFOScheduler,
    Heaven,
    HeavenConfig,
    ParallelExecutor,
    TapeRequest,
    scheduler,
    staging,
)
from repro.errors import HeavenError, StorageError
from repro.faults import FaultPlan
from repro.tertiary import DLT_7000, MB, TapeLibrary, Timeline, scaled_profile

PROFILE = scaled_profile(DLT_7000, 256 * MB)


def request_batches():
    """Batches of raw-extent requests over a handful of media."""

    def build(entries):
        return [
            TapeRequest(
                key=f"r{i}",
                medium_id=f"m{medium}",
                offset=offset * 1024,
                length=(1 + i % 3) * 1024,
            )
            for i, (medium, offset) in enumerate(entries)
        ]

    return st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 1000)),
        min_size=1,
        max_size=30,
    ).map(build)


def build_library(num_drives: int) -> TapeLibrary:
    library = TapeLibrary(PROFILE, num_drives=num_drives)
    for m in range(5):
        library.new_medium(f"m{m}")
    return library


class TestExecutorProperties:
    @given(request_batches(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_makespan_bracketed_by_device_work(self, batch, drives):
        library = build_library(drives)
        # The executor always validates: per-visit drift beyond 10 % raises.
        report = ParallelExecutor(library).execute(batch)
        makespan = report.makespan_seconds
        work = report.serial_device_seconds
        assert makespan <= work + 1e-9
        assert work <= drives * makespan + 1e-9
        assert report.estimate_drift <= scheduler.ESTIMATE_TOLERANCE

    @given(request_batches(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_every_request_served_exactly_once(self, batch, drives):
        library = build_library(drives)
        report = ParallelExecutor(library).execute(batch)
        assert sorted(report.order) == sorted(r.key for r in batch)
        assert report.requests == len(batch)

    @given(request_batches(), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_event_window_decomposes_into_busy_plus_wait(self, batch, drives):
        library = build_library(drives)
        log = library.clock.log
        start = log.cursor()
        report = ParallelExecutor(library).execute(batch)
        window = log.window(start, log.cursor())
        busy = sum(share.busy_seconds for share in report.drives)
        wait = sum(share.wait_seconds for share in report.drives)
        assert report.serial_device_seconds == pytest.approx(busy)
        assert report.robot_wait_seconds == pytest.approx(wait)
        assert sum(e.duration for e in window) == pytest.approx(busy + wait)

    @given(request_batches())
    @settings(max_examples=40, deadline=None)
    def test_single_drive_has_no_robot_wait(self, batch):
        library = build_library(1)
        report = ParallelExecutor(library).execute(batch)
        assert report.robot_wait_seconds == 0.0
        assert report.makespan_seconds == pytest.approx(
            report.serial_device_seconds
        )


class TestCostModelGuard:
    """``_check_estimate`` on executed visits: the cost model's per-visit
    estimate is the executor's reference, so a disagreement raises."""

    BATCH = [TapeRequest(f"r{i}", "m0", i * 4096, 2048) for i in range(3)]

    @pytest.fixture
    def doubled_estimate(self, monkeypatch):
        """A cost model that expects twice what the devices charge."""
        estimate = scheduler._visit_seconds
        monkeypatch.setattr(
            scheduler, "_visit_seconds", lambda *args: 2 * estimate(*args)
        )

    def test_disagreeing_cost_model_raises_naming_the_medium(self, doubled_estimate):
        library = build_library(2)
        with pytest.raises(HeavenError, match="drifted 50.0% on m0"):
            ParallelExecutor(library).execute(self.BATCH)

    def test_visit_with_a_fault_is_exempt(self, doubled_estimate):
        plan = FaultPlan(seed=1)
        library = TapeLibrary(PROFILE, num_drives=2, faults=plan)
        library.new_medium("m0")
        plan.fail_next("media", device="drive-0")  # one transient read error
        start = library.clock.log.cursor()
        report = ParallelExecutor(library).execute(self.BATCH)
        window = library.clock.log.window(start)
        assert [e.kind for e in window].count("fault") == 1
        assert report.estimate_drift == 0.0  # the one visit compared nothing
        assert report.bytes_read == sum(r.length for r in self.BATCH)
        devices = {"drive-0", library.robot.robot_id}
        assert scheduler._check_estimate("m0", 1.0, window, devices) is None


class TestTimelineMechanics:
    def test_charges_advance_only_the_active_timeline(self):
        library = build_library(1)
        clock = library.clock
        timeline = Timeline.at("t", clock.now)
        with clock.timeline(timeline):
            clock.charge(5.0, "read", "d0")
            assert timeline.now == pytest.approx(5.0)
        assert clock.global_now == 0.0
        clock.sync_to([timeline])
        assert clock.now == pytest.approx(5.0)

    def test_sync_inside_timeline_rejected(self):
        library = build_library(1)
        clock = library.clock
        timeline = Timeline.at("t", clock.now)
        with clock.timeline(timeline):
            with pytest.raises(RuntimeError):
                clock.sync_to([timeline])

    def test_mount_rejects_medium_held_elsewhere(self):
        library = build_library(2)
        first, second = library.drives
        assert library.mount("m0", second) is second
        with pytest.raises(StorageError):
            library.mount("m0", first)
        assert library.mount("m0", second) is second  # idempotent holder
        assert library.mount("m0") is second

    def test_executor_rejects_nested_batches(self):
        library = build_library(2)
        timeline = Timeline.at("t", 0.0)
        executor = ParallelExecutor(library)
        with library.clock.timeline(timeline):
            with pytest.raises(HeavenError):
                executor.execute([TapeRequest("r0", "m0", 0, 1024)])


def drive_state(library: TapeLibrary):
    """Every drive's medium and head, and the drives by recency (LRU first)."""
    held = [
        (d.medium.medium_id if d.medium else None, d.head_position)
        for d in library.drives
    ]
    recency = [d.drive_id for d in sorted(library.drives, key=lambda d: d.last_used)]
    return held, recency


def fetches(library: TapeLibrary, start: int):
    """``(medium, drive)`` of every robot fetch since log cursor *start*."""
    return [
        tuple(e.detail[len("fetch "):].split(" -> "))
        for e in library.clock.log.window(start)
        if e.kind == "exchange" and e.detail.startswith("fetch ")
    ]


@st.composite
def twin_setups(draw):
    """A 2-3 drive library's initial mounts and head positions, a batch, and
    an optional medium to keep mounted (one the mounts or the batch use)."""
    drives = draw(st.integers(2, 3))
    media = draw(st.permutations(range(5)))
    mounts = [
        (index, media[index], draw(st.integers(0, 400)) * 1024)
        for index in range(drives)
        if draw(st.booleans())
    ]
    batch = draw(request_batches())
    used = sorted({f"m{m}" for _i, m, _h in mounts} | {r.medium_id for r in batch})
    return drives, mounts, batch, draw(st.none() | st.sampled_from(used))


def build_twin(drives, mounts) -> TapeLibrary:
    library = build_library(drives)
    for index, medium, head in mounts:
        drive = library.mount(f"m{medium}", library.drives[index])
        library.read_extent_on(drive, head, 1024)
    return library


class TestSerialEquivalence:
    """The executor against the serial loop it overlaps, on twin libraries."""

    @given(twin_setups(), st.sampled_from([ElevatorScheduler, FIFOScheduler]))
    @settings(max_examples=60, deadline=None)
    def test_same_moves_same_landing_order_never_slower(self, setup, order_with):
        # *kept*: an optional medium both twins keep mounted (an update's
        # append medium), so the diverted LRU picks must match too.
        drives, mounts, batch, kept = setup
        oracle, library = build_twin(drives, mounts), build_twin(drives, mounts)
        ordered = order_with().order(batch, oracle)
        assert drive_state(oracle) == drive_state(library)

        oracle_start, oracle_t0 = oracle.clock.log.cursor(), oracle.clock.now
        oracle_before = oracle.stats()
        oracle_landed = []
        with oracle.keep_mounted(kept):
            for request in ordered:
                oracle.read_extent(request.medium_id, request.offset, request.length)
                oracle.clock.charge(0.25, "write", "disk", nbytes=request.length)
                oracle_landed.append(request.key)
        oracle_after = oracle.stats()
        oracle_elapsed = oracle.clock.now - oracle_t0

        start, before = library.clock.log.cursor(), library.stats()
        landed, landed_at = [], []

        def land(request):
            landed_at.append(library.clock.now)
            library.clock.charge(0.25, "write", "disk", nbytes=request.length)
            landed.append(request.key)

        with library.keep_mounted(kept):
            report = ParallelExecutor(library).execute(ordered, on_staged=land)
        after = library.stats()

        assert fetches(library, start) == fetches(oracle, oracle_start)
        for counter in (
            "exchanges", "bytes_read", "seeks", "seek_distance_bytes", "kept_mounts"
        ):
            assert (
                getattr(after, counter) - getattr(before, counter)
                == getattr(oracle_after, counter) - getattr(oracle_before, counter)
            ), counter
        assert report.exchanges == oracle_after.exchanges - oracle_before.exchanges
        assert landed == oracle_landed
        # each run lands no earlier than its drive finished streaming it
        streamed = [
            e.time + e.duration
            for e in library.clock.log.window(start)
            if e.kind == "read"
        ]
        assert all(at >= end - 1e-9 for at, end in zip(landed_at, streamed))
        assert landed_at == sorted(landed_at)
        assert drive_state(library) == drive_state(oracle)
        assert report.makespan_seconds <= oracle_elapsed + 1e-9
        assert report.serial_device_seconds == pytest.approx(oracle_elapsed)


class TestFailover:
    def test_rejected_load_continues_on_the_drive_that_took_it(self):
        plan = FaultPlan(seed=1)
        library = TapeLibrary(PROFILE, num_drives=2, faults=plan)
        for m in range(2):
            library.new_medium(f"m{m}")
        batch = [TapeRequest(f"r{i}", f"m{i % 2}", i * 4096, 2048) for i in range(6)]
        # drive-0 rejects the first load: m0 fails over to drive-1
        plan.fail_next("mount", device="drive-0")
        landed = []
        ordered = ElevatorScheduler().order(batch, library)
        report = ParallelExecutor(library).execute(ordered, on_staged=landed.append)
        assert library.recovery.failovers == 1
        assert library.mounted_drive("m0").drive_id == "drive-1"
        assert sorted(r.key for r in landed) == sorted(r.key for r in batch)
        assert report.bytes_read == sum(r.length for r in batch)
        assert report.makespan_seconds > 0


def serial_wave(heaven, wave, needs, ticket):
    """The serial staging loop, whatever the drive count: each request
    streamed by ``library.read_extent`` and landed before the next."""
    staged_keys = []
    for request in wave:
        heaven.library.read_extent(request.medium_id, request.offset, request.length)
        staging._land_staged(heaven, request, needs, ticket, staged_keys)
    return staged_keys


class TestHeavenByteIdentity:
    REGIONS = [
        MInterval.of((0, 100), (0, 100)),
        MInterval.of((20, 127), (64, 127)),
        MInterval.of((0, 31), (0, 127)),
    ]

    def build(self, num_drives: int) -> Heaven:
        heaven = Heaven(
            HeavenConfig(
                tape_profile=scaled_profile(DLT_7000, 512 * 1024),
                num_drives=num_drives,
                super_tile_bytes=256 * 1024,
                disk_cache_bytes=32 * MB,
                memory_cache_bytes=8 * MB,
            )
        )
        heaven.create_collection("col")
        for i in range(3):
            mdd = MDD(
                f"obj{i}",
                MInterval.of((0, 127), (0, 127)),
                DOUBLE,
                tiling=RegularTiling((32, 32)),
                source=HashedNoiseSource(5 + i, 0.0, 9.0),
            )
            heaven.insert("col", mdd)
            heaven.archive("col", f"obj{i}")
        heaven.library.unmount_all()
        return heaven

    def run(self, monkeypatch, batch):
        """``read_many(batch)`` on a two-drive library staging through the
        executor, on its twin staging serially, and on a one-drive library;
        returns ``(heaven, cells, virtual seconds)`` per run."""
        runs = []
        for drives, serial in ((2, False), (2, True), (1, False)):
            heaven = self.build(drives)
            with monkeypatch.context() as patch:
                if serial:
                    patch.setattr(staging, "_stage_wave", serial_wave)
                t0 = heaven.clock.now
                cells, _report = heaven.read_many(batch)
            runs.append((heaven, cells, heaven.clock.now - t0))
        return runs

    def test_serial_and_parallel_staging_return_identical_bytes(self, monkeypatch):
        batch = [
            ("col", f"obj{i}", region)
            for i in range(3)
            for region in self.REGIONS
        ]
        (parallel, cells, _t), (serial, serial_cells, _ts), (one, one_cells, _to) = (
            self.run(monkeypatch, batch)
        )
        for a, b, c in zip(cells, serial_cells, one_cells):
            assert np.array_equal(a, b)
            assert np.array_equal(a, c)
        assert parallel.parallel_batches > 0  # the parallel path really ran
        assert serial.parallel_batches == one.parallel_batches == 0
        stats, serial_stats = parallel.library.stats(), serial.library.stats()
        assert stats.exchanges == serial_stats.exchanges
        assert stats.bytes_read == serial_stats.bytes_read == one.library.stats().bytes_read
        assert stats.seek_distance_bytes == serial_stats.seek_distance_bytes

    def test_parallel_staging_not_slower_than_serial(self, monkeypatch):
        batch = [("col", f"obj{i}", self.REGIONS[0]) for i in range(3)]
        (_p, _c, parallel_s), (_s, _sc, serial_s), (_o, _oc, one_s) = self.run(
            monkeypatch, batch
        )
        assert parallel_s <= serial_s + 1e-9
        assert parallel_s <= one_s + 1e-9
