"""Every read plans its staging exactly once.

``Heaven._staged`` is the only staging protocol: the read entry points,
framed reads, admission sweeps and RasQL trims each stage their tile cover
in one scheduled pass and then assemble with no further planning.  A
second plan of the same batch looks every disk-cache segment up again and
always hits, which inflates the cache's hit ratio and touches its policy
state twice per read.
"""

import numpy as np
import pytest

from repro.arrays import MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.core.admission import AdmissionController, QuerySpec
from repro.core.framing import MultiBoxFrame
from repro.core.units import SubReadRequest
from repro.tertiary import MB

SIDE = 128
DOMAIN = MInterval.of((0, SIDE - 1), (0, SIDE - 1))
CELLS = np.round(
    np.random.default_rng(20040314).normal(size=(SIDE, SIDE)).cumsum(axis=0), 1
)
REGION = MInterval.of((8, 119), (0, 63))
#: an L: a tall bar on the left plus a foot along the bottom
L_FRAME = "0:63,0:15; 48:63,16:63"


def make_heaven() -> Heaven:
    """A cold archived zlib object spread over many 8 KiB super-tiles."""
    heaven = Heaven(
        HeavenConfig(
            compression="zlib",
            super_tile_bytes=8 * 1024,
            min_super_tile_bytes=4 * 1024,
            disk_cache_bytes=1 * MB,
            memory_cache_bytes=16 * MB,
        )
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


def serve_sub_reads(heaven):
    (response,) = heaven.serve_sub_reads(
        [
            SubReadRequest(
                request_id="u", tenant="t", collection="col",
                object_name="obj", region=str(REGION),
            )
        ]
    )
    return [response.assembled()], [oracle(REGION)]


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


@pytest.mark.parametrize(
    "operation",
    [
        read, read_many, serve_sub_reads, read_frame, admission,
        rasql_trim, rasql_induced, rasql_frame,
    ],
)
def test_operation_plans_once(operation, monkeypatch):
    heaven = make_heaven()
    plans = []
    collect_needs = heaven.collect_needs

    def counted(pairs, tile_pins):
        # An admission sweep stages through ``_staged([])``: its fused
        # needs bypass collection, so that empty batch plans nothing.
        if pairs:
            plans.append(pairs)
        return collect_needs(pairs, tile_pins)

    monkeypatch.setattr(heaven, "collect_needs", counted)
    got, expected = operation(heaven)
    assert len(plans) == 1
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
