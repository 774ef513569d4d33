"""The read path is one pipeline whose only input is the unit.

Every read is an admission query over resolved units: ``read_with_report``
and ``read_many`` submit one query, ``serve_sub_reads`` and ``run_units``
one query per unit.  A query of one unit is the same read whichever way it
came in: on twin instances the four entry points return the same cells,
the same cost numbers and the same event log, and a rejected unit leaves
no trace.
"""

import copy

import numpy as np
import pytest

from repro.arrays import DOUBLE, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, ScatterPlacement
from repro.core.admission import AdmissionController, QuerySpec
from repro.core.units import SubReadRequest
from repro.errors import HeavenError

SIDE = 128
REGION = MInterval.of((8, 119), (0, 127))

#: cost fields a report and a unit's stats share ...
STAT_FIELDS = (
    "bytes_useful", "bytes_from_tape", "exchanges", "virtual_seconds",
    "restages", "super_tiles_staged",
)
#: ... and the ones only a report carries
REPORT_FIELDS = STAT_FIELDS + ("tiles_needed", "pins", "waves")


def make_twin(disk_cache_bytes: int = 32 * 1024, placement=None, **config) -> Heaven:
    """Archived zlib object four times the default disk cache: waves and
    evictions (*placement*: the archive's media placement)."""
    heaven = Heaven(
        HeavenConfig(
            compression="zlib",
            super_tile_bytes=8 * 1024,
            min_super_tile_bytes=4 * 1024,
            disk_cache_bytes=disk_cache_bytes,
            memory_cache_bytes=16 * 1024,
            **config,
        )
    )
    heaven.create_collection("col")
    rng = np.random.default_rng(20040314)
    cells = np.round(rng.normal(size=(SIDE, SIDE)).cumsum(axis=0), 1)
    heaven.insert(
        "col", MDD.from_array("obj", cells, tiling=RegularTiling((16, 16)))
    )
    heaven.archive("col", "obj", placement=placement)
    heaven.library.unmount_all()
    return heaven


def unit(heaven: Heaven, region: MInterval, tile_ids=None) -> SubReadRequest:
    """A data-node unit for *tile_ids*, by default the region's tile cover."""
    if tile_ids is None:
        mdd = heaven.collection("col").get("obj")
        tile_ids = tuple(t.tile_id for t in mdd.tiles_for(region))
    return SubReadRequest(
        request_id="u", tenant="t", collection="col", object_name="obj",
        region=str(region), tile_ids=tile_ids,
    )


def pasted(response, region: MInterval) -> np.ndarray:
    """The region's cells from a unit's tiles, each clipped to the region."""
    cells = np.full(region.shape, np.nan)
    for tile in response.tiles:
        cells[MInterval.parse(tile.domain).to_slices(region)] = tile.cells()
    return cells


def events_since(heaven: Heaven, cursor: int):
    return [
        (e.time, e.duration, e.kind, e.device, e.detail, e.bytes)
        for e in heaven.clock.log.window(cursor)
    ]


#: the twins the entry points are compared on: one medium with capacity
#: waves and evictions, and super-tiles scattered round-robin over media
TWINS = {
    "waves": make_twin,
    "media": lambda: make_twin(placement=ScatterPlacement()),
}


class TestReadIsABatchOfOne:
    @pytest.mark.parametrize("twin", sorted(TWINS))
    def test_four_entry_points_agree(self, twin):
        single, batch, served, units = (TWINS[twin]() for _ in range(4))
        heavens = (single, batch, served, units)
        cursors = [h.clock.log.cursor() for h in heavens]

        cells, report = single.read_with_report("col", "obj", REGION)
        (batch_cells,), batch_report = batch.read_many([("col", "obj", REGION)])
        (response,) = served.serve_sub_reads([unit(served, REGION)])
        (unit_response,), multi = AdmissionController(units).run_units(
            [unit(units, REGION)]
        )

        np.testing.assert_array_equal(batch_cells, cells)
        cover = [t.tile_id for t in single.collection("col").get("obj").tiles_for(REGION)]
        for answer in (response, unit_response):
            assert [t.tile_id for t in answer.tiles] == cover
            np.testing.assert_array_equal(pasted(answer, REGION), cells)

        entry = single.archived("obj")
        media = {single.library.locate(st.segment_name) for st in entry.super_tiles}
        if twin == "waves":
            # The scenario really exercises waves and evictions.
            assert report.waves > 1
            assert single.disk_cache.stats.evictions > 0
        else:
            assert len(media) >= 2
        # A lone query's demands on every medium share one sweep.
        assert multi.sweeps == 1
        for name in REPORT_FIELDS:
            assert getattr(batch_report, name) == getattr(report, name), name
            assert getattr(multi.queries[0], name) == getattr(report, name), name
        for name in STAT_FIELDS:
            for answer in (response, unit_response):
                assert getattr(answer.stats, name) == getattr(report, name), name

        logs = [events_since(h, cursor) for h, cursor in zip(heavens, cursors)]
        assert logs[0] == logs[1] == logs[2] == logs[3]
        for heaven in heavens:
            heaven.assert_quiescent()

    def test_cold_read_keeps_drained_segments(self):
        """A wave's drained segments that are still on disk are handed to
        the query's ticket before it assembles, so they cannot be evicted
        under it: a cold read that needs four disk caches' worth of bytes
        restages almost nothing."""
        heaven = make_twin()
        _cells, report = heaven.read_with_report("col", "obj", REGION)
        assert report.waves > 1
        # The count is a step function of the frame bytes the codec
        # writes, so a failure prints them next to the cache they fill.
        sizes = [st.size_bytes for st in heaven.archived("obj").super_tiles]
        assert report.restages <= 4, (
            f"{report.restages} restages; super-tile size_bytes {sizes} "
            f"(sum {sum(sizes)}) against disk_cache.capacity_bytes "
            f"{heaven.disk_cache.capacity_bytes}"
        )
        heaven.assert_quiescent()

    def test_admission_run_of_one_is_a_direct_read(self):
        """One query through the admission layer stages in one sweep, the
        same pass ``read_with_report`` makes: same cells, same events,
        same tape bytes and exchanges."""
        direct, admitted = make_twin(256 * 1024), make_twin(256 * 1024)
        entry = direct.archived("obj")
        assert len({direct.library.locate(st.segment_name) for st in entry.super_tiles}) == 1
        cursors = [h.clock.log.cursor() for h in (direct, admitted)]

        cells, report = direct.read_with_report("col", "obj", REGION)
        (admitted_cells,), multi = AdmissionController(admitted).run(
            [QuerySpec(collection="col", object_name="obj", region=REGION)]
        )

        np.testing.assert_array_equal(admitted_cells, cells)
        assert report.waves == 1 and report.bytes_from_tape > 0
        assert multi.sweeps == 1
        (query,) = multi.queries
        assert query.bytes_from_tape == multi.bytes_from_tape == report.bytes_from_tape
        assert query.exchanges == multi.exchanges == report.exchanges == 1
        assert events_since(admitted, cursors[1]) == events_since(direct, cursors[0])
        for heaven in (direct, admitted):
            heaven.assert_quiescent()

    def test_tile_subset_unit_is_exactly_those_tiles(self):
        heaven, twin = make_twin(), make_twin()
        mdd = heaven.collection("col").get("obj")
        wanted = tuple(t.tile_id for t in mdd.tiles_for(REGION))[1::3]
        # Unsorted on purpose: the resolver sorts the subset.
        (response,) = heaven.serve_sub_reads([unit(heaven, REGION, wanted[::-1])])
        assert [t.tile_id for t in response.tiles] == sorted(wanted)
        # Each tile travels clipped to its overlap with the region: the
        # payload's domain is the clip box, its cells the tile's cells there.
        twin_mdd = twin.collection("col").get("obj")
        clipped = 0
        for tile in response.tiles:
            domain = twin_mdd.tiles[tile.tile_id].domain
            clip = domain.intersection(REGION)
            assert tile.domain == str(clip)
            clipped += clip != domain
            np.testing.assert_array_equal(
                tile.cells(),
                twin_mdd.materialize_tile(twin_mdd.tiles[tile.tile_id])[
                    clip.to_slices(domain)
                ],
            )
        assert clipped > 0, "the region must cut through some wanted tile"
        assert response.stats.bytes_useful == sum(
            t.nbytes for t in response.tiles
        )
        assert response.stats.bytes_useful == 8 * sum(
            twin_mdd.tiles[t].domain.intersection(REGION).cell_count
            for t in wanted
        )

    def test_tile_outside_the_region_is_rejected(self):
        heaven = make_twin()
        mdd = heaven.collection("col").get("obj")
        corner = MInterval.of((0, 15), (0, 15))
        outside = next(
            t for t in mdd.tiles.values() if not t.domain.intersects(corner)
        )
        with pytest.raises(HeavenError, match="does not intersect"):
            heaven.serve_sub_reads([unit(heaven, corner, (outside.tile_id,))])


class TestRejectedUnitLeavesNoTrace:
    """Tile ids are validated before the access is recorded."""

    @pytest.mark.parametrize("via", ["serve_sub_reads", "run_units"])
    def test_unknown_tile_id(self, via):
        heaven = make_twin()
        heaven.read("col", "obj", MInterval.of((0, 15), (0, 15)))
        stats_before = copy.deepcopy(heaven.access_stats)
        now, cursor = heaven.clock.now, heaven.clock.log.cursor()
        counters = (heaven.read_tiles_needed, heaven.read_bytes_useful)

        bad = unit(heaven, REGION, (0, 9999))
        with pytest.raises(HeavenError, match="no tile 9999"):
            if via == "serve_sub_reads":
                heaven.serve_sub_reads([bad])
            else:
                AdmissionController(heaven).run_units([bad])

        assert heaven.access_stats == stats_before
        assert heaven.clock.now == now
        assert not heaven.clock.log.window(cursor)
        assert heaven.disk_cache.pinned_keys() == []
        assert (heaven.read_tiles_needed, heaven.read_bytes_useful) == counters
        heaven.assert_quiescent()
