"""Work-conserving fused sweeps and drained-tile pin handoff.

A sweep for the weighted-fair pick also takes the next-fairest media,
whole, until it holds one medium per drive, and then serves the pending
demands on media already sitting in a drive (those cost no exchange), all
within the disk cache's free bytes and never under aging escalation.
Tiles a sweep drains out of the disk cache stay pinned for every query
that demanded them until it assembled, so a query still waiting on
another medium does not restage them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.core.admission import AdmissionController, QuerySpec, _Demand, _QueryTask
from repro.core.units import SubReadRequest
from repro.obs import reconcile_shared_tape_bytes
from repro.tertiary import DLT_7000, scaled_profile

from .conftest import SIDE, make_heaven

KB = 1024


def _one_object_per_medium(**overrides) -> Heaven:
    """Two drives, three 64x64 objects, each alone on its own medium."""
    config = dict(
        num_drives=2,
        tape_profile=scaled_profile(DLT_7000, SIDE * SIDE * 8),
        min_super_tile_bytes=4 * KB,
    )
    config.update(overrides)
    heaven = make_heaven(**config)
    for index in range(3):
        heaven.insert(
            "col",
            MDD(
                f"o{index}",
                MInterval.of((0, SIDE - 1), (0, SIDE - 1)),
                DOUBLE,
                tiling=RegularTiling((16, 16)),
                source=HashedNoiseSource(index, 0.0, 5.0),
            ),
        )
        heaven.archive("col", f"o{index}")
    heaven.library.unmount_all()
    return heaven


def _medium_of(heaven: Heaven, name: str) -> str:
    (medium_id,) = {
        heaven.library.locate(st.segment_name) for st in heaven.archived(name).super_tiles
    }
    return medium_id


def _mount_o1_then_o2(heaven: Heaven) -> None:
    """Leave o1's medium in the least recently used drive, o2's in the other."""
    heaven.read("col", "o1", MInterval.of((0, 15), (0, SIDE - 1)))
    heaven.read("col", "o2", MInterval.of((0, 15), (0, SIDE - 1)))


WHOLE = MInterval.of((0, SIDE - 1), (0, SIDE - 1))
#: o1's rows the warm-up read did not stage
O1_TAIL = MInterval.of((32, SIDE - 1), (0, SIDE - 1))


class TestRideAlong:
    def _run(self, o1_arrival_s: float):
        heaven = _one_object_per_medium()
        _mount_o1_then_o2(heaven)
        mounted = {d.medium.medium_id for d in heaven.library.drives if d.medium}
        assert mounted == {_medium_of(heaven, "o1"), _medium_of(heaven, "o2")}
        now = heaven.clock.now
        specs = [
            QuerySpec("col", "o0", WHOLE, arrival_s=now, name="scan"),
            QuerySpec("col", "o1", O1_TAIL, arrival_s=now + o1_arrival_s, name="tail"),
        ]
        outputs, report = AdmissionController(heaven).run(specs)
        return heaven, outputs, report

    def test_one_sweep_serves_the_mounted_medium_too(self):
        heaven, outputs, report = self._run(o1_arrival_s=0.0)
        m0, m1 = _medium_of(heaven, "o0"), _medium_of(heaven, "o1")
        # The fair pick (a tie at zero service, broken by medium id) is o0's
        # medium, which no drive holds; o1's demand rides along.
        assert m0 < m1
        assert report.sweeps == 1
        assert [q.waves for q in report.queries] == [1, 1]
        # Each audit row names its own segment's medium.
        medium_of_key = {
            st.segment_name: heaven.library.locate(st.segment_name)
            for name in ("o0", "o1")
            for st in heaven.archived(name).super_tiles
        }
        assert {a.medium_id for a in report.audit} == {m0, m1}
        for entry in report.audit:
            assert entry.medium_id == medium_of_key[entry.key]
        # o1's medium streams first (already mounted), then o0's medium
        # replaces the least recently used cartridge, o2's: one load.
        assert report.exchanges == 1

        oracle = _one_object_per_medium()
        np.testing.assert_array_equal(outputs[0], oracle.read("col", "o0", WHOLE))
        np.testing.assert_array_equal(outputs[1], oracle.read("col", "o1", O1_TAIL))
        assert reconcile_shared_tape_bytes(
            report.queries,
            heaven.clock.log,
            report.log_cursor_start,
            unattributed=report.unattributed_tape_bytes,
        ) is None
        assert report.unattributed_tape_bytes == 0
        assert [q.bytes_from_tape for q in report.queries] == [
            WHOLE.cell_count * 8, O1_TAIL.cell_count * 8,
        ]
        heaven.assert_quiescent()

    def test_exchange_count_drops_by_one(self):
        _heaven, _outputs, fused = self._run(o1_arrival_s=0.0)
        # The same two reads when o1's arrives only after o0's sweep: o0's
        # medium evicts o1's (the LRU drive), which must come back.
        _heaven, _outputs, apart = self._run(o1_arrival_s=10_000.0)
        assert apart.sweeps == 2
        assert (apart.exchanges, fused.exchanges) == (2, 1)
        assert fused.bytes_from_tape == apart.bytes_from_tape

    def test_ride_alongs_stay_within_the_free_disk_cache(self):
        # A disk cache of exactly the picked scan's bytes: o1's demand would
        # force the sweep into capacity waves, so it waits for its own.
        heaven = _one_object_per_medium(disk_cache_bytes=WHOLE.cell_count * 8)
        _mount_o1_then_o2(heaven)
        now = heaven.clock.now
        _outputs, report = AdmissionController(heaven).run([
            QuerySpec("col", "o0", WHOLE, arrival_s=now),
            QuerySpec("col", "o1", O1_TAIL, arrival_s=now),
        ])
        assert report.sweeps == 2
        assert heaven.restages == 0
        heaven.assert_quiescent()


class TestOneMediumPerDrive:
    """Nothing mounted; a scan of o0 and o1's tail arrive together."""

    def _run(self, **overrides):
        heaven = _one_object_per_medium(**overrides)
        now = heaven.clock.now
        outputs, report = AdmissionController(heaven).run([
            QuerySpec("col", "o0", WHOLE, arrival_s=now, name="scan"),
            QuerySpec("col", "o1", O1_TAIL, arrival_s=now, name="tail"),
        ])
        return heaven, outputs, report

    def test_two_drives_stream_both_media_in_one_sweep(self):
        heaven, outputs, report = self._run()
        assert report.sweeps == 1
        assert report.sweep_media == [2]
        # The exchanges and bytes of two one-medium sweeps, but the two
        # media load side by side: 33.36 s against 41.38 s in series.
        assert report.exchanges == 2
        assert report.bytes_from_tape == 49_152
        assert report.makespan_s == pytest.approx(33.36, abs=0.01)
        oracle = _one_object_per_medium()
        np.testing.assert_array_equal(outputs[0], oracle.read("col", "o0", WHOLE))
        np.testing.assert_array_equal(outputs[1], oracle.read("col", "o1", O1_TAIL))
        assert reconcile_shared_tape_bytes(
            report.queries,
            heaven.clock.log,
            report.log_cursor_start,
            unattributed=report.unattributed_tape_bytes,
        ) is None
        heaven.assert_quiescent()

    def test_one_drive_serves_one_medium_per_sweep(self):
        _heaven, _outputs, report = self._run(num_drives=1)
        assert report.sweeps == 2
        assert report.sweep_media == [1, 1]
        assert [round(s, 2) for s in report.latencies_s] == [20.12, 48.59]

    def test_a_medium_that_does_not_fit_waits_whole(self):
        # Room for the scan plus half of o1's demands: one of them alone
        # would fit, but o1's medium joins whole or not at all.
        heaven = _one_object_per_medium(disk_cache_bytes=WHOLE.cell_count * 8 * 3 // 2)
        now = heaven.clock.now
        o1_head = MInterval.of((0, 31), (0, SIDE - 1))
        _outputs, report = AdmissionController(heaven).run([
            QuerySpec("col", "o0", WHOLE, arrival_s=now),
            QuerySpec("col", "o1", O1_TAIL, arrival_s=now),
            QuerySpec("col", "o1", o1_head, arrival_s=now),
        ])
        # Per-demand first fit would have streamed one o1 demand with the
        # scan: [2, 1].
        assert report.sweep_media == [1, 1]
        scan, tail, head = report.latencies_s
        assert scan < min(tail, head)
        assert heaven.restages == 0
        heaven.assert_quiescent()


class TestAgingEscalationServesOneMedium:
    def _dispatch(self, aging_bound_s):
        """Chosen demands of one dispatch: an old demand on an unmounted
        medium, a fresh one on a mounted medium."""
        heaven = _one_object_per_medium()
        _mount_o1_then_o2(heaven)
        controller = AdmissionController(heaven, aging_bound_s=aging_bound_s)
        old_s = heaven.clock.now
        heaven.clock.charge(100.0, "wait", "test")
        tasks = []
        for qid, (name, enqueued) in enumerate(
            (("o0", old_s), ("o1", heaven.clock.now)), start=1
        ):
            task = _QueryTask(qid=qid, spec=QuerySpec("col", name, WHOLE), weight=1.0)
            task.admitted = True
            key = heaven.archived(name).super_tiles[-1].segment_name
            task.demands[key] = _Demand(
                key=key, medium_id=_medium_of(heaven, name), run=(0, 1024),
                enqueued_s=enqueued,
            )
            task.pending = {key}
            tasks.append(task)
        controller._tasks = controller._order = tasks
        chosen = []
        controller._execute_sweep = lambda medium, picked: chosen.extend(picked)
        controller._dispatch_sweep()
        return heaven, [demand.medium_id for _task, demand in chosen]

    def test_escalated_sweep_takes_no_ride_alongs(self):
        heaven, media = self._dispatch(aging_bound_s=100.0)
        assert media == [_medium_of(heaven, "o0")]

    def test_unescalated_sweep_takes_them(self):
        heaven, media = self._dispatch(aging_bound_s=None)
        assert media == [_medium_of(heaven, "o0"), _medium_of(heaven, "o1")]


class TestDrainedPinsOutliveTheSweep:
    """A sweep drains part of a query's tiles into the memory tile cache
    while the query (and a second one) still waits on another medium.

    8 KB super-tiles, a 16 KB disk cache (two super-tiles), a 12-tile
    memory cache, one drive.  "big" fills a first medium and shares a
    second one with "hot", whose frequently read tiles fill the rest of
    the memory cache and outrank drained tiles nobody pinned.  The first
    sweep's own demands overfill the disk cache, so the demands on the
    mounted second medium do not ride along.
    """

    @staticmethod
    def _build(big_rows: int, media_kb: int) -> Heaven:
        heaven = Heaven(HeavenConfig(
            super_tile_bytes=8 * KB,
            min_super_tile_bytes=4 * KB,
            disk_cache_bytes=16 * KB,
            memory_cache_bytes=24 * KB,
            tape_profile=scaled_profile(DLT_7000, media_kb * KB),
            num_drives=1,
        ))
        heaven.create_collection("col")
        for seed, (name, rows, cols) in enumerate(
            (("big", big_rows, 64), ("hot", 32, 32))
        ):
            heaven.insert("col", MDD(
                name, MInterval.of((0, rows - 1), (0, cols - 1)), DOUBLE,
                tiling=RegularTiling((16, 16)),
                source=HashedNoiseSource(seed, 0.0, 5.0),
            ))
            heaven.archive("col", name)
        heaven.library.unmount_all()
        return heaven

    # (big's rows, medium KB, super-tiles on the first medium, second
    # query's first row).  Without the handoff the next sweep's drained or
    # salvaged tiles evicted the first sweep's and "big" restaged them:
    # 20 restages and 104 KB off tape on the first layout, 8 and 56 KB on
    # the second.  Pinning tiles whose segment stayed pinned on disk as
    # well starved the first layout's second sweep of memory: 8 restages.
    @pytest.mark.parametrize(
        "big_rows, media_kb, first_medium, tail_row",
        [(80, 24, 3, 48), (96, 32, 4, 64)],
    )
    def test_no_restage_and_oracle_bytes(
        self, big_rows, media_kb, first_medium, tail_row
    ):
        heaven = self._build(big_rows, media_kb)
        locate = heaven.library.locate
        media = [locate(st.segment_name) for st in heaven.archived("big").super_tiles]
        assert set(media[:first_medium]) == {media[0]} != {media[first_medium]}
        assert locate(heaven.archived("hot").super_tiles[0].segment_name) == media[first_medium]
        for _ in range(3):
            heaven.read("col", "hot", MInterval.of((0, 31), (0, 31)))
        mdd = heaven.collection("col").get("big")
        regions = [
            MInterval.of((0, 79), (0, 63)),
            MInterval.of((tail_row, 79), (0, 63)),
        ]
        units = [
            SubReadRequest(
                request_id=f"u{index}", tenant="t", collection="col",
                object_name="big", region=str(region),
                tile_ids=tuple(t.tile_id for t in mdd.tiles_for(region)),
            )
            for index, region in enumerate(regions)
        ]
        responses, report = AdmissionController(heaven).run_units(units)
        assert report.sweeps == 2
        assert heaven.restages == 0
        # Every segment of rows 0-79 came off tape exactly once.
        assert report.bytes_from_tape == 5 * 8 * KB
        assert report.exchanges == 2
        oracle = self._build(big_rows, media_kb).collection("col").get("big")
        for response in responses:
            for tile in response.tiles:
                np.testing.assert_array_equal(
                    tile.cells(), oracle.materialize_tile(oracle.tiles[tile.tile_id])
                )
        assert (
            sum(r.stats.bytes_from_tape for r in responses)
            + report.unattributed_tape_bytes
            == report.bytes_from_tape
        )
        heaven.assert_quiescent()
