"""End-to-end integration scenarios across every layer.

These tests replay the paper's motivating workflows: a climate archive
answering subset queries across the hierarchy, cross-object time series,
the HSM baseline vs HEAVEN comparison, and failure injection (aborted
transactions, cache pressure) during archive operation.
"""

import numpy as np
import pytest

from repro.arrays import DOUBLE, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, MultiBoxFrame
from repro.errors import ReproError
from repro.tertiary import DLT_7000, HSMSystem, MB, TapeLibrary, scaled_profile
from repro.workloads import (
    ClimateGrid,
    climate_object,
    monthly_series,
    slice_region,
    subcube,
)


def small_heaven(**overrides):
    defaults = dict(
        super_tile_bytes=512 * 1024,
        disk_cache_bytes=32 * MB,
        memory_cache_bytes=8 * MB,
    )
    defaults.update(overrides)
    return Heaven(HeavenConfig(**defaults))


class TestClimateArchiveScenario:
    """The DKRZ story: archive model output, answer subset queries."""

    GRID = ClimateGrid(longitudes=120, latitudes=60, heights=8, time_steps=12)

    def test_full_workflow(self):
        heaven = small_heaven()
        heaven.create_collection("climate")
        obj = climate_object("run1", self.GRID, seed=2)
        truth = obj.source.region(obj.domain, obj.cell_type)

        heaven.insert("climate", obj)
        report = heaven.archive("climate", "run1")
        assert report.bytes_written == obj.size_bytes

        # Abb. 1.1 left: subcube.
        cube = MInterval.of((10, 40), (20, 50), (2, 5), (0, 3))
        assert np.array_equal(
            heaven.read("climate", "run1", cube), truth[10:41, 20:51, 2:6, 0:4]
        )

        # Abb. 1.1 middle: full cross-section at one latitude.
        cross = slice_region(obj.domain, axis=1, position=30)
        got = heaven.read("climate", "run1", cross)
        assert got.shape == (120, 1, 8, 12)

        # Aggregation via the query language, answered from the hierarchy.
        results = heaven.query(
            "select avg_cells(c[0:119, 0:59, 0:7, 0:0]) from climate as c"
        )
        assert results[0].scalar() == pytest.approx(
            truth[:, :, :, 0:1].mean(), rel=1e-9
        )

    def test_cross_object_time_series(self):
        """Abb. 1.1 right: a thin slice over every monthly object."""
        heaven = small_heaven()
        heaven.create_collection("months")
        grid = ClimateGrid(60, 30, 4)
        series = monthly_series("m", 4, grid, seed=9)
        for obj in series:
            heaven.insert("months", obj)
            heaven.archive("months", obj.name)
        region = slice_region(grid.domain(), axis=2, position=2)
        means = []
        for obj in series:
            means.append(heaven.read("months", obj.name, region).mean())
        expect = [
            obj.source.region(region, obj.cell_type).mean() for obj in series
        ]
        assert means == pytest.approx(expect)

    def test_many_queries_stay_correct_under_cache_pressure(self):
        heaven = small_heaven(
            super_tile_bytes=256 * 1024,
            disk_cache_bytes=1 * MB,
            memory_cache_bytes=512 * 1024,
        )
        heaven.create_collection("climate")
        obj = climate_object(
            "run1",
            ClimateGrid(120, 60, 8, 12),  # ~5.3 MB
            seed=4,
            tiling=RegularTiling((30, 30, 4, 6)),
        )
        heaven.insert("climate", obj)
        heaven.archive("climate", "run1")
        rng = np.random.default_rng(11)
        for _ in range(12):
            region = subcube(obj.domain, 0.03, rng)
            expect = obj.source.region(region, obj.cell_type)
            assert np.array_equal(heaven.read("climate", "run1", region), expect)
        assert heaven.disk_cache.stats.evictions > 0  # pressure was real


class TestHSMComparisonScenario:
    """File-granular HSM vs tile-granular HEAVEN on the same request."""

    def test_heaven_moves_fraction_of_hsm_bytes(self):
        profile = scaled_profile(DLT_7000, 512 * MB)
        object_bytes = 16 * MB

        hsm = HSMSystem(TapeLibrary(profile))
        hsm.archive_file("obj", object_bytes)
        hsm.read_file("obj", 0, object_bytes // 100)  # 1 % request
        hsm_bytes = hsm.stats.bytes_staged_from_tape

        heaven = small_heaven(tape_profile=profile, super_tile_bytes=1 * MB)
        heaven.create_collection("c")
        mdd = climate_object(
            "obj", ClimateGrid(128, 128, 8, 16), seed=1,
            tiling=RegularTiling((32, 32, 8, 4)),
        )
        assert mdd.size_bytes == object_bytes
        heaven.insert("c", mdd)
        heaven.archive("c", "obj")
        region = subcube(mdd.domain, 0.01, np.random.default_rng(0))
        _cells, report = heaven.read_with_report("c", "obj", region)

        assert hsm_bytes == object_bytes
        assert report.bytes_from_tape < hsm_bytes / 4


class TestFramingScenario:
    def test_framed_read_over_tape(self):
        heaven = small_heaven()
        heaven.create_collection("c")
        obj = climate_object("o", ClimateGrid(60, 60, 4), seed=3)
        heaven.insert("c", obj)
        heaven.archive("c", "o")
        frame = MultiBoxFrame(
            [
                MInterval.of((0, 9), (0, 59), (0, 3)),
                MInterval.of((50, 59), (0, 59), (0, 3)),
            ]
        )
        framed, mask = heaven.read_frame("c", "o", frame, fill=np.nan)
        direct = obj.source.region(framed.domain, obj.cell_type)
        assert np.array_equal(framed.cells[mask], direct[mask])
        assert np.isnan(framed.cells[~mask]).all()


class TestRobustness:
    def test_aborted_insert_leaves_no_trace(self):
        """A crash mid-insert rolls back catalog rows and tile BLOBs."""
        heaven = small_heaven()
        heaven.create_collection("c")
        db = heaven.db
        obj = climate_object(
            "o", ClimateGrid(20, 20, 4), seed=0, tiling=RegularTiling((10, 10, 2))
        )
        original_put = db.put_blob
        calls = {"n": 0}

        def failing_put(payload=None, size=None):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("simulated disk failure mid-export")
            return original_put(payload, size)

        db.put_blob = failing_put
        with pytest.raises(RuntimeError):
            heaven.storage.insert_object("c", obj)
        db.put_blob = original_put
        assert len(db.blobs) == 0
        assert list(db.table("ras_mddobjects").scan()) == []
        assert list(db.table("ras_tiles").scan()) == []
        assert not db.in_transaction

    def test_everything_raises_repro_errors(self):
        heaven = small_heaven()
        with pytest.raises(ReproError):
            heaven.collection("ghost")
        with pytest.raises(ReproError):
            heaven.archived("ghost")
        with pytest.raises(ReproError):
            heaven.query("select broken from")

    def test_two_objects_share_the_library(self):
        heaven = small_heaven()
        heaven.create_collection("c")
        a = climate_object("a", ClimateGrid(40, 40, 4), seed=1)
        b = climate_object("b", ClimateGrid(40, 40, 4), seed=2)
        heaven.insert("c", a)
        heaven.insert("c", b)
        heaven.archive("c", "a")
        heaven.archive("c", "b")
        region = MInterval.of((0, 39), (0, 19), (0, 1))
        got_a = heaven.read("c", "a", region)
        got_b = heaven.read("c", "b", region)
        assert not np.array_equal(got_a, got_b)
        assert np.array_equal(got_a, a.source.region(region, a.cell_type))
        assert np.array_equal(got_b, b.source.region(region, b.cell_type))
