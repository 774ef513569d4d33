"""Invariants of the discrete-event parallel executor (hypothesis + unit).

The executor's claims are checked on *executed* batches, not estimates:

* makespan is bracketed by the device work:
  ``makespan <= serial_device_seconds <= drives * makespan``;
* every request of a batch is served exactly once;
* the event-log window decomposes exactly into per-drive busy time plus
  robot-wait time (nothing double-charged, nothing lost);
* a fixed-seed workload returns byte-identical arrays whether staging
  runs serial or parallel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import (
    Heaven,
    HeavenConfig,
    ParallelExecutor,
    TapeRequest,
    coalesce_requests,
    plan_parallel,
)
from repro.errors import HeavenError, StorageError
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
        library = build_library(4)
        report = ParallelExecutor(library, num_drives=drives).execute(batch)
        makespan = report.makespan_seconds
        work = report.serial_device_seconds
        assert makespan <= work + 1e-9
        assert work <= drives * makespan + 1e-9

    @given(request_batches(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_every_request_served_exactly_once(self, batch, drives):
        library = build_library(4)
        report = ParallelExecutor(library, num_drives=drives).execute(batch)
        assert sorted(report.order) == sorted(r.key for r in batch)
        assert report.requests == len(batch)

    @given(request_batches(), st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_event_window_decomposes_into_busy_plus_wait(self, batch, drives):
        library = build_library(4)
        log = library.clock.log
        start = log.cursor()
        report = ParallelExecutor(library, num_drives=drives).execute(batch)
        window = log.window(start, log.cursor())
        busy = sum(share.busy_seconds for share in report.drives)
        wait = sum(share.wait_seconds for share in report.drives)
        assert report.serial_device_seconds == pytest.approx(busy)
        assert report.robot_wait_seconds == pytest.approx(wait)
        assert sum(e.duration for e in window) == pytest.approx(busy + wait)

    @given(request_batches(), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_executed_matches_plan_within_tolerance(self, batch, drives):
        library = build_library(4)
        plan = plan_parallel(batch, library, drives)
        # The executor always validates: per-medium drift beyond 10 % raises.
        report = ParallelExecutor(library, num_drives=drives).execute(batch)
        assert report.estimate_drift <= 0.10
        assert report.makespan_seconds == pytest.approx(
            plan.makespan_seconds, rel=0.10
        )

    @given(request_batches())
    @settings(max_examples=40, deadline=None)
    def test_single_drive_has_no_robot_wait(self, batch):
        library = build_library(1)
        report = ParallelExecutor(library, num_drives=1).execute(batch)
        assert report.robot_wait_seconds == 0.0
        assert report.makespan_seconds == pytest.approx(
            report.serial_device_seconds
        )


class TestCoalescing:
    def reqs(self, *extents):
        return [
            TapeRequest(f"r{i}", "m0", offset, length)
            for i, (offset, length) in enumerate(extents)
        ]

    def test_adjacent_requests_merge(self):
        runs = coalesce_requests(self.reqs((0, 10), (10, 10), (20, 5)))
        assert len(runs) == 1
        assert (runs[0].offset, runs[0].length) == (0, 25)
        assert [r.key for r in runs[0].requests] == ["r0", "r1", "r2"]

    def test_overlapping_requests_merge_without_double_read(self):
        runs = coalesce_requests(self.reqs((0, 20), (10, 20)))
        assert len(runs) == 1
        assert (runs[0].offset, runs[0].length) == (0, 30)

    def test_gap_splits_runs(self):
        runs = coalesce_requests(self.reqs((0, 10), (20, 10)))
        assert [(r.offset, r.length) for r in runs] == [(0, 10), (20, 10)]

    def test_backward_request_is_not_merged(self):
        # Forward-only: a FIFO batch sweeping backwards keeps its seeks.
        runs = coalesce_requests(self.reqs((50, 10), (0, 10)))
        assert [(r.offset, r.length) for r in runs] == [(50, 10), (0, 10)]


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

    def test_mount_on_rejects_medium_held_elsewhere(self):
        library = build_library(2)
        first, second = library.drives
        library.mount_on("m0", first)
        with pytest.raises(StorageError):
            library.mount_on("m0", second)
        assert library.mount_on("m0", first) is first  # idempotent holder

    def test_executor_rejects_nested_batches(self):
        library = build_library(2)
        timeline = Timeline.at("t", 0.0)
        executor = ParallelExecutor(library, num_drives=2)
        with library.clock.timeline(timeline):
            with pytest.raises(HeavenError):
                executor.execute([TapeRequest("r0", "m0", 0, 1024)])


class TestHeavenByteIdentity:
    REGIONS = [
        MInterval.of((0, 100), (0, 100)),
        MInterval.of((20, 127), (64, 127)),
        MInterval.of((0, 31), (0, 127)),
    ]

    def build(self, parallel_drives: int) -> Heaven:
        heaven = Heaven(
            HeavenConfig(
                tape_profile=scaled_profile(DLT_7000, 512 * 1024),
                num_drives=2,
                parallel_drives=parallel_drives,
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

    def test_serial_and_parallel_staging_return_identical_bytes(self):
        serial = self.build(1)
        parallel = self.build(2)
        batch = [
            ("col", f"obj{i}", region)
            for i in range(3)
            for region in self.REGIONS
        ]
        serial_cells, _sr = serial.read_many(batch)
        parallel_cells, _pr = parallel.read_many(batch)
        for a, b in zip(serial_cells, parallel_cells):
            assert np.array_equal(a, b)
        assert parallel.parallel_batches > 0  # the parallel path really ran

    def test_parallel_staging_not_slower_than_serial(self):
        serial = self.build(1)
        parallel = self.build(2)
        batch = [("col", f"obj{i}", self.REGIONS[0]) for i in range(3)]
        t0 = serial.clock.now
        serial.read_many(batch)
        t1 = parallel.clock.now
        parallel.read_many(batch)
        assert parallel.clock.now - t1 <= serial.clock.now - t0 + 1e-9
