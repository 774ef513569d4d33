"""Tests for the Heaven façade: archive, transparent retrieval, caching."""

import numpy as np
import pytest

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, ScatterPlacement
from repro.errors import HeavenError
from repro.tertiary import MB


class TestArchive:
    def test_archive_requires_insert(self, heaven_small, cube_mdd):
        heaven_small.create_collection("col")
        heaven_small.collection("col").add(cube_mdd)
        with pytest.raises(HeavenError):
            heaven_small.archive("col", "cube")

    def test_double_archive_rejected(self, archived_heaven):
        with pytest.raises(HeavenError):
            archived_heaven.archive("col", "cube")

    def test_archive_reports_segments(self, heaven_small, cube_mdd):
        heaven_small.create_collection("col")
        heaven_small.insert("col", cube_mdd)
        report = heaven_small.archive("col", "cube")
        assert report.mode == "tct"
        assert report.bytes_written == cube_mdd.size_bytes
        assert heaven_small.is_archived("cube")

    def test_disk_copy_released_by_default(self, heaven_small, cube_mdd):
        heaven_small.create_collection("col")
        heaven_small.insert("col", cube_mdd)
        blobs_before = heaven_small.db.blobs.total_bytes
        heaven_small.archive("col", "cube")
        assert heaven_small.db.blobs.total_bytes < blobs_before
        assert not archived_entry(heaven_small).disk_copy

    def test_keep_disk_copy(self, heaven_small, cube_mdd):
        heaven_small.create_collection("col")
        heaven_small.insert("col", cube_mdd)
        heaven_small.archive("col", "cube", keep_disk_copy=True)
        assert archived_entry(heaven_small).disk_copy

    def test_archive_with_scatter_placement(self, heaven_small, cube_mdd):
        heaven_small.create_collection("col")
        heaven_small.insert("col", cube_mdd)
        heaven_small.archive("col", "cube", placement=ScatterPlacement(spread=3))
        media = {
            heaven_small.library.locate(st.segment_name)
            for st in archived_entry(heaven_small).super_tiles
        }
        assert len(media) == 3


def archived_entry(heaven):
    return heaven.archived("cube")


class TestRetrieval:
    REGION = MInterval.of((10, 50), (70, 120), (3, 12))

    def test_read_matches_source(self, archived_heaven, cube_mdd):
        expect = cube_mdd.source.region(self.REGION, cube_mdd.cell_type)
        got = archived_heaven.read("col", "cube", self.REGION)
        assert np.array_equal(got, expect)

    def test_report_counts(self, archived_heaven):
        _cells, report = archived_heaven.read_with_report("col", "cube", self.REGION)
        assert report.tiles_needed > 0
        assert report.super_tiles_staged > 0
        assert report.bytes_from_tape >= report.bytes_useful * 0  # staged runs
        assert report.virtual_seconds > 0

    def test_second_read_served_from_cache(self, archived_heaven):
        archived_heaven.read("col", "cube", self.REGION)
        _cells, report = archived_heaven.read_with_report("col", "cube", self.REGION)
        assert report.bytes_from_tape == 0
        assert report.super_tiles_staged == 0

    def test_cached_read_much_faster(self, archived_heaven):
        _c, cold = archived_heaven.read_with_report("col", "cube", self.REGION)
        _c, warm = archived_heaven.read_with_report("col", "cube", self.REGION)
        assert warm.virtual_seconds < cold.virtual_seconds / 10

    def test_partial_run_widened_on_demand(self, archived_heaven, cube_mdd):
        """A later read needing more of a cached segment restages it."""
        thin = MInterval.of((0, 10), (0, 10), (0, 2))
        archived_heaven.read("col", "cube", thin)
        wide = MInterval.of((0, 127), (0, 127), (0, 31))
        got = archived_heaven.read("col", "cube", wide)
        expect = cube_mdd.source.region(wide, cube_mdd.cell_type)
        assert np.array_equal(got, expect)

    def test_single_tile_resolver_path(self, archived_heaven, cube_mdd):
        """Reading through mdd.read directly (no prepare) stages on demand."""
        region = MInterval.of((0, 5), (0, 5), (0, 5))
        expect = cube_mdd.source.region(region, cube_mdd.cell_type)
        assert np.array_equal(cube_mdd.read(region), expect)

    def test_access_statistics_recorded(self, archived_heaven):
        archived_heaven.read("col", "cube", self.REGION)
        stats = archived_heaven.access_stats["cube"]
        assert stats.queries == 1

    def test_unarchived_object_reads_from_disk(self, heaven_small, small_mdd):
        heaven_small.create_collection("d")
        heaven_small.insert("d", small_mdd)
        region = MInterval.of((0, 20), (0, 20))
        expect = small_mdd.source.region(region, small_mdd.cell_type)
        got = heaven_small.read("d", "small", region)
        assert np.array_equal(got, expect)
        assert heaven_small.library.stats().bytes_read == 0


class TestQueryIntegration:
    def test_query_over_archived_object(self, archived_heaven, cube_mdd):
        results = archived_heaven.query(
            "select avg_cells(c[0:31, 0:31, 0:7]) from col as c"
        )
        expect = cube_mdd.source.region(
            MInterval.of((0, 31), (0, 31), (0, 7)), cube_mdd.cell_type
        ).mean()
        assert results[0].scalar() == pytest.approx(expect)

    def test_tile_aligned_condenser_answered_from_catalog(self, archived_heaven):
        tape_before = archived_heaven.library.stats().bytes_read
        archived_heaven.query("select avg_cells(c[0:31, 0:31, 0:7]) from col as c")
        assert archived_heaven.precomputed.stats.answered_pure >= 1
        assert archived_heaven.library.stats().bytes_read == tape_before

    def test_frame_query_extension(self, archived_heaven, cube_mdd):
        results = archived_heaven.query(
            'select avg_cells(frame(c, "0:9,0:9,0:9; 30:39,0:9,0:9")) from col as c'
        )
        assert len(results) == 1

    def test_frame_extension_validates_args(self, archived_heaven):
        with pytest.raises(HeavenError):
            archived_heaven.query('select frame(c) from col as c')


class TestSnapshot:
    def test_snapshot_keys(self, archived_heaven):
        archived_heaven.read("col", "cube", MInterval.of((0, 9), (0, 9), (0, 9)))
        snap = archived_heaven.snapshot()
        assert snap["archived_objects"] == ["cube"]
        assert snap["virtual_seconds"] > 0
        assert "exchange" in snap["time_breakdown"]
        assert (snap["precomputed"].edge_reused, snap["precomputed"].edge_read) == (0, 0)
