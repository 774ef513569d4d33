"""Every staging is one admission query that plans exactly once.

The read entry points, framed reads, RasQL trims and ``frame()``,
condenser edge tiles, and the tile loads of ``update`` and ``reimport``
each run as one admission query: they stage their tile cover in one
scheduled pass and then answer with no further planning.  A second plan
of the same batch looks every disk-cache segment up again and always
hits, which inflates the cache's hit ratio and touches its policy state
twice per read.  A rejected operation is refused before it stages or
records anything.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.arrays import MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.core.admission import AdmissionController, QuerySpec
from repro.core.framing import MultiBoxFrame
from repro.core.units import SubReadRequest
from repro.errors import DomainError
from repro.service.node import DataNode
from repro.tertiary import MB

SIDE = 128
DOMAIN = MInterval.of((0, SIDE - 1), (0, SIDE - 1))
CELLS = np.round(
    np.random.default_rng(20040314).normal(size=(SIDE, SIDE)).cumsum(axis=0), 1
)
REGION = MInterval.of((8, 119), (0, 63))
#: an L: a tall bar on the left plus a foot along the bottom
L_FRAME = "0:63,0:15; 48:63,16:63"
#: a box that cuts tiles on every side, so a condenser over it stages edges
EDGES = "5:100, 3:90"


def make_heaven() -> Heaven:
    """A cold archived zlib object spread over many 8 KiB super-tiles."""
    heaven = Heaven(
        HeavenConfig(
            compression="zlib",
            super_tile_bytes=8 * 1024,
            min_super_tile_bytes=4 * 1024,
            disk_cache_bytes=1 * MB,
            memory_cache_bytes=16 * MB,
        ),
        observability=True,
    )
    heaven.create_collection("col")
    heaven.insert("col", MDD.from_array("obj", CELLS, tiling=RegularTiling((16, 16))))
    heaven.archive("col", "obj")
    heaven.library.unmount_all()
    return heaven


def oracle(region: MInterval) -> np.ndarray:
    return CELLS[region.to_slices(DOMAIN)]


def framed_oracle(frame: MultiBoxFrame) -> np.ndarray:
    hull = frame.bounding_box()
    inside = np.zeros(hull.shape, dtype=bool)
    for box in frame.boxes:
        inside[box.to_slices(hull)] = True
    return np.where(inside, oracle(hull), 0.0)


def read(heaven):
    return [heaven.read("col", "obj", REGION)], [oracle(REGION)]


def read_many(heaven):
    regions = [REGION, MInterval.of((0, 15), (0, 127)), MInterval.of((100, 127), (40, 90))]
    cells, _report = heaven.read_many([("col", "obj", r) for r in regions])
    return cells, [oracle(r) for r in regions]


def cover(heaven, region: MInterval):
    """The tile ids of *region*'s cover, in tile-id order."""
    return tuple(t.tile_id for t in heaven.collection("col").get("obj").tiles_for(region))


def clips(region: MInterval):
    """The oracle's cells of each tile of *region*'s cover, clipped to it."""
    mdd = MDD.from_array("obj", CELLS, tiling=RegularTiling((16, 16)))
    return [
        CELLS[tile.domain.intersection(region).to_slices(DOMAIN)]
        for tile in mdd.tiles_for(region)
    ]


def serve_sub_reads(heaven):
    (response,) = heaven.serve_sub_reads(
        [
            SubReadRequest(
                request_id="u", tenant="t", collection="col",
                object_name="obj", region=str(REGION), tile_ids=cover(heaven, REGION),
            )
        ]
    )
    return [tile.cells() for tile in response.tiles], clips(REGION)


def read_frame(heaven):
    frame = MultiBoxFrame.parse(L_FRAME)
    framed, _mask = heaven.read_frame("col", "obj", frame)
    return [framed.cells], [framed_oracle(frame)]


def admission(heaven):
    outputs, _report = AdmissionController(heaven).run(
        [QuerySpec(collection="col", object_name="obj", region=REGION)]
    )
    return outputs, [oracle(REGION)]


def rasql_trim(heaven):
    (result,) = heaven.query("select a[8:119, 0:63] from col as a")
    return [result.value.cells], [oracle(REGION)]


def rasql_induced(heaven):
    (result,) = heaven.query("select a[8:119, 0:63] + 1 from col as a")
    return [result.value.cells], [oracle(REGION) + 1]


def rasql_frame(heaven):
    (result,) = heaven.query(f'select frame(a, "{L_FRAME}") from col as a')
    return [result.value.cells], [framed_oracle(MultiBoxFrame.parse(L_FRAME))]


def condenser(heaven):
    """Interior tiles answer from their partials, the edges stage."""
    (result,) = heaven.query(f"select max_cells(a[{EDGES}]) from col as a")
    assert heaven.precomputed.stats.edge_read > 0
    return [result.value], [oracle(MInterval.parse(EDGES)).max()]


def update(heaven):
    region = MInterval.of((20, 35), (40, 55))
    cells = np.full(region.shape, -1.0)
    entry = heaven.archived("obj")
    mdd = heaven.collection("col").get("obj")
    rewritten = {entry.super_tile_of(t.tile_id).index for t in mdd.tiles_for(region)}
    count = heaven.update("col", "obj", region, cells)
    # The update left its tiles in the memory cache: no query, no restage.
    return [count, mdd.read(region)], [len(rewritten), cells]


def reimport(heaven):
    count = heaven.reimport("col", "obj")
    cells = heaven.collection("col").get("obj").read_all()
    return [count, cells], [(SIDE // 16) ** 2, CELLS]


def queries_reported(heaven) -> int:
    """Admission queries sealed so far: each feeds the read histogram once."""
    return heaven.obs.metrics.snapshot()["repro_read_virtual_seconds_count"].get("", 0)


@pytest.mark.parametrize(
    "operation",
    [
        read, read_many, serve_sub_reads, read_frame, admission,
        rasql_trim, rasql_induced, rasql_frame, condenser, update, reimport,
    ],
)
def test_operation_plans_once(operation, monkeypatch):
    heaven = make_heaven()
    plans = []
    collect_needs = heaven.collect_needs

    def counted(pairs, tile_pins):
        plans.append(pairs)
        return collect_needs(pairs, tile_pins)

    monkeypatch.setattr(heaven, "collect_needs", counted)
    before = queries_reported(heaven)
    got, expected = operation(heaven)
    assert len(plans) == 1
    assert queries_reported(heaven) - before == 1
    assert len(got) == len(expected)
    for cells, want in zip(got, expected):
        np.testing.assert_array_equal(cells, want)
    assert heaven.restages == 0
    heaven.assert_quiescent()


def test_cold_read_looks_each_segment_up_once():
    """k segments, k disk-cache lookups (a second plan made it 2k)."""
    heaven = make_heaven()
    mdd = heaven.collection("col").get("obj")
    entry = heaven.archived("obj")
    segments = {
        entry.super_tile_of(tile.tile_id).segment_name for tile in mdd.tiles_for(REGION)
    }
    assert len(segments) > 1
    before = heaven.disk_cache.stats.lookups
    cells = heaven.read("col", "obj", REGION)
    np.testing.assert_array_equal(cells, oracle(REGION))
    assert heaven.disk_cache.stats.lookups - before == len(segments)
    heaven.assert_quiescent()


def footprint(heaven):
    """Everything a rejected operation must leave alone."""
    return (
        heaven.clock.now,
        heaven.clock.log.cursor(),
        asdict(heaven.disk_cache.stats),
        asdict(heaven.memory_cache.stats),
        {name: asdict(stats) for name, stats in heaven.access_stats.items()},
    )


def serve_units(heaven, regions):
    return DataNode("dn0", heaven)._serve_requests(
        [
            SubReadRequest(
                request_id=f"u{index}", tenant="t", collection="col",
                object_name="obj", region=str(region), tile_ids=cover(heaven, region),
            )
            for index, region in enumerate(regions)
        ]
    )


BAD_READ = MInterval.of((100, 200), (0, 15))


def rejected_read(heaven):
    with pytest.raises(DomainError, match="outside object domain"):
        heaven.read("col", "obj", BAD_READ)


def rejected_read_many(heaven):
    with pytest.raises(DomainError, match="outside object domain"):
        heaven.read_many([("col", "obj", REGION), ("col", "obj", BAD_READ)])


def rejected_update_shape(heaven):
    with pytest.raises(DomainError, match="cells shape"):
        heaven.update("col", "obj", MInterval.of((0, 15), (0, 15)), np.zeros((3, 3)))


def rejected_update_region(heaven):
    region = MInterval.of((120, 135), (0, 15))
    with pytest.raises(DomainError, match="outside object domain"):
        heaven.update("col", "obj", region, np.zeros(region.shape))


def rejected_data_node_unit(heaven):
    """The bad unit answers a typed error, the good one its cells."""
    good, bad = serve_units(heaven, [REGION, BAD_READ])
    for tile, want in zip(good.tiles, clips(REGION), strict=True):
        np.testing.assert_array_equal(tile.cells(), want)
    assert bad.error is not None and bad.error.type == "DomainError"


def served_data_node_unit(heaven):
    (good,) = serve_units(heaven, [REGION])
    assert good.ok


@pytest.mark.parametrize(
    "reject, accept",
    [
        (rejected_read, None),
        (rejected_read_many, None),
        (rejected_update_shape, None),
        (rejected_update_region, None),
        (rejected_data_node_unit, served_data_node_unit),
    ],
    ids=["read", "read_many", "update-shape", "update-region", "data-node"],
)
def test_rejected_operation_touches_nothing(reject, accept):
    """A rejection costs no virtual time, logs no event, touches neither
    cache and records no access: the instance ends as if only the accepted
    part (*accept*, on an identical instance) had run."""
    reference = make_heaven()
    if accept is not None:
        accept(reference)
    heaven = make_heaven()
    reject(heaven)
    assert footprint(heaven) == footprint(reference)
    heaven.assert_quiescent()


def test_failed_edge_reduce_leaves_the_instance_quiescent(monkeypatch):
    """An error inside the condenser's edge query propagates, and the
    query's pins are released."""
    heaven = make_heaven()
    mdd = heaven.collection("col").get("obj")

    def failing_read(_tile):
        raise RuntimeError("decode failed")

    monkeypatch.setattr(mdd, "materialize_tile", failing_read)
    with pytest.raises(RuntimeError, match="decode failed"):
        heaven.query(f"select add_cells(a[{EDGES}]) from col as a")
    heaven.assert_quiescent()
