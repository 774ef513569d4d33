"""Tests for the export pipelines: coupled vs. decoupled TCT."""

import numpy as np
import pytest

from repro.arrays import ArrayStorage, DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import ClusteredPlacement, CoupledExporter, ScatterPlacement, TCTExporter, star_partition
from repro.dbms import Database
from repro.errors import ExportError
from repro.tertiary import DLT_7000, MB, SimClock, TapeLibrary, scaled_profile

PROFILE = scaled_profile(DLT_7000, 256 * MB)


@pytest.fixture
def rig():
    clock = SimClock()
    storage = ArrayStorage(Database(clock))
    library = TapeLibrary(PROFILE, clock=clock)
    storage.create_collection("c")
    mdd = MDD(
        "obj",
        MInterval.from_shape((256, 256)),   # 512 KB
        DOUBLE,
        tiling=RegularTiling((64, 64)),     # 16 tiles of 32 KB
        source=HashedNoiseSource(4),
    )
    storage.insert_object("c", mdd)
    return storage, library, mdd


class TestCoupledExporter:
    def test_one_segment_per_tile(self, rig):
        storage, library, mdd = rig
        report = CoupledExporter(storage, library).export(mdd)
        assert report.segments_written == 16
        assert report.bytes_written == mdd.size_bytes
        assert library.stats().bytes_written == mdd.size_bytes

    def test_payload_preserved_on_tape(self, rig):
        storage, library, mdd = rig
        CoupledExporter(storage, library).export(mdd)
        raw = library.read_segment(f"{mdd.oid}/t0")
        expect = mdd.materialize_tile(mdd.tiles[0]).tobytes()
        assert raw == expect

    def test_unpersisted_object_rejected(self, rig):
        storage, library, _ = rig
        loose = MDD("loose", MInterval.of((0, 7)))
        with pytest.raises(ExportError):
            CoupledExporter(storage, library).export(loose)

    def test_breakdown_includes_settle_per_tile(self, rig):
        storage, library, mdd = rig
        report = CoupledExporter(storage, library).export(mdd)
        assert report.breakdown.get("settle", 0) == pytest.approx(
            16 * PROFILE.stop_start_penalty_s
        )


class TestTCTExporter:
    def export_tct(self, rig, target=4):
        storage, library, mdd = rig
        super_tiles = star_partition(mdd, target * 32 * 1024)
        plan = ClusteredPlacement().plan(super_tiles, library)
        report = TCTExporter(storage, library).export(mdd, plan)
        return report, super_tiles, library, mdd

    def test_one_segment_per_super_tile(self, rig):
        report, super_tiles, library, mdd = self.export_tct(rig)
        assert report.segments_written == len(super_tiles)
        assert report.bytes_written == mdd.size_bytes

    def test_placement_recorded_on_super_tiles(self, rig):
        _report, super_tiles, library, mdd = self.export_tct(rig)
        for st in super_tiles:
            assert st.segment_name is not None
            assert library.has_segment(st.segment_name)
            assert st.tile_extents  # extents assigned

    def test_segment_payload_is_tile_concatenation(self, rig):
        _report, super_tiles, library, mdd = self.export_tct(rig)
        st = super_tiles[0]
        raw = library.medium(library.locate(st.segment_name)).payload(st.segment_name)
        expect = b"".join(
            mdd.materialize_tile(mdd.tiles[t]).tobytes() for t in st.tile_ids
        )
        assert raw == expect

    def test_tct_beats_coupled(self, rig):
        report_tct, _sts, _lib, _mdd = self.export_tct(rig)
        clock2 = SimClock()
        storage2 = ArrayStorage(Database(clock2))
        library2 = TapeLibrary(PROFILE, clock=clock2)
        storage2.create_collection("c")
        mdd2 = MDD(
            "obj",
            MInterval.from_shape((256, 256)),
            DOUBLE,
            tiling=RegularTiling((64, 64)),
            source=HashedNoiseSource(4),
        )
        storage2.insert_object("c", mdd2)
        report_coupled = CoupledExporter(storage2, library2).export(mdd2)
        assert report_tct.virtual_seconds < report_coupled.virtual_seconds

        # Excluding the one-time mount (identical in both runs), the win
        # from streaming + pipelining is large: settle is paid per tile in
        # the coupled path but per super-tile in the TCT path.
        def without_mount(report):
            mount = report.breakdown.get("exchange", 0) + report.breakdown.get("load", 0)
            return report.virtual_seconds - mount

        assert without_mount(report_coupled) / without_mount(report_tct) > 2

    def test_scatter_placement_spreads_media(self, rig):
        storage, library, mdd = rig
        super_tiles = star_partition(mdd, 4 * 32 * 1024)
        plan = ScatterPlacement(spread=4).plan(super_tiles, library)
        TCTExporter(storage, library).export(mdd, plan)
        media = {library.locate(st.segment_name) for st in super_tiles}
        assert len(media) == 4

    def test_unpersisted_object_rejected(self, rig):
        storage, library, _ = rig
        loose = MDD("loose", MInterval.of((0, 7)))
        with pytest.raises(ExportError):
            TCTExporter(storage, library).export(loose, [])

    def test_throughput_property(self, rig):
        report, *_ = self.export_tct(rig)
        assert report.throughput_mb_s > 0
