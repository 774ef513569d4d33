"""Tests for read_many batching, stats persistence, archive-failure cleanup,
and the CFD struct-cell workload through the full hierarchy."""

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, Placement, PlacementPolicy
from repro.errors import HeavenError
from repro.tertiary import MB
from repro.workloads import FlowGrid, cfd_object, flow_cell_type


class SharedStripe(PlacementPolicy):
    """Round-robin super-tiles over a FIXED media set shared by all
    objects — the interleaved multi-object layout where inter-query
    scheduling pays off."""

    def __init__(self, media_ids):
        self.media_ids = list(media_ids)

    def plan(self, super_tiles, library):
        return [
            Placement(st, self.media_ids[i % len(self.media_ids)])
            for i, st in enumerate(super_tiles)
        ]


def multi_object_heaven(scattered=True, objects=3):
    heaven = Heaven(
        HeavenConfig(
            super_tile_bytes=8 * 1024,   # 4 tiles per super-tile -> 8 STs/object
            disk_cache_bytes=64 * MB,
            memory_cache_bytes=16 * MB,
            num_drives=1,
        )
    )
    heaven.create_collection("col")
    placement = None
    if scattered:
        media = [heaven.library.new_medium(f"shared-{i}") for i in range(3)]
        placement = SharedStripe([m.medium_id for m in media])
    mdds = []
    for i in range(objects):
        mdd = MDD(
            f"o{i}",
            MInterval.of((0, 63), (0, 63)),
            DOUBLE,
            tiling=RegularTiling((16, 16)),
            source=HashedNoiseSource(i, 0.0, 5.0),
        )
        heaven.insert("col", mdd)
        heaven.archive("col", mdd.name, placement=placement)
        mdds.append(mdd)
    heaven.library.unmount_all()
    return heaven, mdds


class TestReadMany:
    REGION = MInterval.of((0, 30), (0, 30))

    def test_results_match_individual_reads(self):
        heaven, mdds = multi_object_heaven()
        batch = [("col", m.name, self.REGION) for m in mdds]
        outputs, report = heaven.read_many(batch)
        assert len(outputs) == 3
        for cells, mdd in zip(outputs, mdds):
            expect = mdd.source.region(self.REGION, mdd.cell_type)
            assert np.array_equal(cells, expect)
        assert report.bytes_useful == sum(int(c.nbytes) for c in outputs)

    def test_batch_needs_fewer_exchanges_than_serial(self):
        heaven_a, mdds_a = multi_object_heaven()
        exchanges_before = heaven_a.library.stats().exchanges
        for mdd in mdds_a:
            heaven_a.read("col", mdd.name, self.REGION)
        serial_exchanges = heaven_a.library.stats().exchanges - exchanges_before

        heaven_b, mdds_b = multi_object_heaven()
        _outputs, report = heaven_b.read_many(
            [("col", m.name, self.REGION) for m in mdds_b]
        )
        assert report.exchanges < serial_exchanges

    def test_batch_faster_than_serial(self):
        heaven_a, mdds_a = multi_object_heaven()
        start = heaven_a.clock.now
        for mdd in mdds_a:
            heaven_a.read("col", mdd.name, self.REGION)
        serial_seconds = heaven_a.clock.now - start

        heaven_b, mdds_b = multi_object_heaven()
        _outputs, report = heaven_b.read_many(
            [("col", m.name, self.REGION) for m in mdds_b]
        )
        assert report.virtual_seconds < serial_seconds

    def test_mixed_batch_with_unarchived_object(self):
        heaven, mdds = multi_object_heaven(objects=2)
        plain = MDD(
            "plain",
            MInterval.of((0, 15), (0, 15)),
            DOUBLE,
            source=HashedNoiseSource(42),
        )
        heaven.insert("col", plain)
        outputs, _report = heaven.read_many(
            [
                ("col", "o0", self.REGION),
                ("col", "plain", MInterval.of((0, 15), (0, 15))),
            ]
        )
        assert np.array_equal(
            outputs[1], plain.source.region(MInterval.of((0, 15), (0, 15)), DOUBLE)
        )

    def test_same_object_twice_stages_once(self):
        heaven, mdds = multi_object_heaven(objects=1)
        outputs, report = heaven.read_many(
            [("col", "o0", self.REGION), ("col", "o0", self.REGION)]
        )
        assert np.array_equal(outputs[0], outputs[1])
        # The second request found everything already requested/staged.
        second_run = heaven.read_many(
            [("col", "o0", self.REGION), ("col", "o0", self.REGION)]
        )[1]
        assert second_run.bytes_from_tape == 0


class TestStatsPersistence:
    def test_roundtrip_through_catalog(self):
        heaven, mdds = multi_object_heaven(scattered=False, objects=1)
        region = MInterval.of((0, 63), (0, 7))
        heaven.read("col", "o0", region)
        heaven.read("col", "o0", region)
        assert heaven.persist_access_statistics() == 1

        fresh = Heaven(HeavenConfig())
        fresh.db = heaven.db  # same base DBMS ("next session")
        assert fresh.restore_access_statistics() == 1
        stats = fresh.access_stats["o0"]
        assert stats.queries == 2
        assert stats.axis_order()[0] == 0  # axis 0 spanned fully

    def test_restore_without_table_is_noop(self):
        heaven = Heaven(HeavenConfig())
        assert heaven.restore_access_statistics() == 0

    def test_persist_overwrites_previous_snapshot(self):
        heaven, _ = multi_object_heaven(scattered=False, objects=1)
        heaven.read("col", "o0", MInterval.of((0, 5), (0, 5)))
        heaven.persist_access_statistics()
        heaven.read("col", "o0", MInterval.of((0, 5), (0, 5)))
        heaven.persist_access_statistics()
        rows = [row for _rid, row in heaven.db.table(Heaven.STATS_TABLE).scan()]
        assert len(rows) == 1
        assert rows[0]["queries"] == 2


class TestArchiveFailureCleanup:
    def test_failed_export_leaves_no_orphan_segments(self):
        heaven, _ = multi_object_heaven(scattered=False, objects=1)
        mdd = MDD(
            "doomed",
            MInterval.of((0, 63), (0, 63)),
            DOUBLE,
            tiling=RegularTiling((16, 16)),
            source=HashedNoiseSource(7),
        )
        heaven.insert("col", mdd)
        original = heaven.library.write_segment
        calls = {"n": 0}

        def failing_write(name, length, payload=None, medium_id=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("simulated drive fault")
            return original(name, length, payload=payload, medium_id=medium_id)

        heaven.library.write_segment = failing_write
        segments_before = sum(len(m) for m in heaven.library.media())
        with pytest.raises(RuntimeError):
            # 4 super-tiles; the 3rd write faults after 2 succeeded.
            heaven.archive("col", "doomed")
        heaven.library.write_segment = original
        assert sum(len(m) for m in heaven.library.media()) == segments_before
        assert not heaven.is_archived("doomed")
        # Still readable from disk and archivable afterwards.
        region = MInterval.of((0, 7), (0, 7))
        assert np.array_equal(
            heaven.read("col", "doomed", region),
            mdd.source.region(region, DOUBLE),
        )
        heaven.archive("col", "doomed")
        assert heaven.is_archived("doomed")


class TestCFDWorkload:
    def test_struct_cells_through_full_hierarchy(self):
        heaven = Heaven(
            HeavenConfig(
                super_tile_bytes=512 * 1024,
                disk_cache_bytes=64 * MB,
                memory_cache_bytes=16 * MB,
                compression="zlib",
            )
        )
        heaven.create_collection("cfd")
        obj = cfd_object("run", FlowGrid(32, 16, 16), seed=4)
        region = MInterval.of((0, 15), (0, 15), (0, 7))
        expect = obj.source.region(region, obj.cell_type)
        heaven.insert("cfd", obj)
        heaven.archive("cfd", "run")
        got = heaven.read("cfd", "run", region)
        assert got.dtype.names == ("u", "v", "w", "p")
        for name in got.dtype.names:
            assert np.array_equal(got[name], expect[name])

    def test_struct_objects_skip_scalar_catalogs(self):
        heaven = Heaven(
            HeavenConfig(
                super_tile_bytes=512 * 1024,
                pyramid_factors=(2,),
            )
        )
        heaven.create_collection("cfd")
        obj = cfd_object("run", FlowGrid(16, 8, 8))
        heaven.insert("cfd", obj)
        heaven.archive("cfd", "run")
        assert not heaven.precomputed.has_object("run")
        assert not heaven.pyramids.has_object("run")

    def test_flow_physics(self):
        obj = cfd_object("run", FlowGrid(32, 16, 8), seed=1)
        cells = obj.read_all()
        # Parabolic profile: centreline u larger than near-wall u.
        assert cells["u"][:, 8, :].mean() > cells["u"][:, 1, :].mean()
        # Pressure falls downstream.
        assert cells["p"][0].mean() > cells["p"][-1].mean()

    def test_field_access_in_query(self):
        heaven = Heaven(HeavenConfig(super_tile_bytes=512 * 1024))
        heaven.create_collection("cfd")
        obj = cfd_object("run", FlowGrid(16, 8, 8), seed=2)
        heaven.insert("cfd", obj)
        heaven.archive("cfd", "run")
        results = heaven.query("select avg_cells(c.u) from cfd as c")
        expect = obj.source.region(obj.domain, obj.cell_type)["u"].mean()
        assert results[0].scalar() == pytest.approx(expect, rel=1e-6)
