"""A service node's shadow object has the data node's own geometry.

``Heaven.describe_object`` hands the service node the object's tiling and
cell type, so the shadow MDD it builds has the data node's tile ids, tile
domains and tile index, and splits every region into the same tiles.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrays import DOUBLE, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.service import ShadowObject


@st.composite
def domains(draw):
    """A 1-3-D domain anywhere on the axes, at most ~2 000 cells."""
    dimension = draw(st.integers(1, 3))
    side = {1: 60, 2: 40, 3: 12}[dimension]
    axes = []
    for _ in range(dimension):
        lo = draw(st.integers(-20, 20))
        axes.append((lo, lo + draw(st.integers(0, side - 1))))
    return MInterval.of(*axes)


@st.composite
def tilings(draw, domain):
    """A regular tiling; extents that do not divide an axis leave clipped
    edge tiles."""
    return RegularTiling(
        tuple(draw(st.integers(1, max(1, axis.extent))) for axis in domain.axes)
    )


@st.composite
def regions(draw, domain):
    """A box that may reach past the domain on any side."""
    axes = []
    for axis in domain.axes:
        a = draw(st.integers(axis.lo - 5, axis.hi + 5))
        b = draw(st.integers(axis.lo - 5, axis.hi + 5))
        axes.append((min(a, b), max(a, b)))
    return MInterval.of(*axes)


@st.composite
def objects(draw):
    domain = draw(domains())
    return domain, draw(tilings(domain)), draw(st.lists(regions(domain), min_size=1, max_size=5))


@pytest.mark.property
@settings(max_examples=120, deadline=None)
@given(drawn=objects())
def test_shadow_has_the_data_nodes_tiles(drawn):
    domain, tiling, boxes = drawn
    heaven = Heaven(HeavenConfig())
    heaven.create_collection("c")
    heaven.insert("c", MDD("obj", domain, DOUBLE, tiling=tiling))
    mdd = heaven.collection("c").get("obj")

    shadow = ShadowObject(heaven.describe_object("c", "obj"))

    assert shadow.domain == mdd.domain
    assert sorted(shadow.mdd.tiles) == sorted(mdd.tiles)
    for tile_id, tile in mdd.tiles.items():
        assert shadow.mdd.tiles[tile_id].domain == tile.domain
    assert shadow.mdd.index.grid_counts == mdd.index.grid_counts
    for region in boxes:
        assert [t.tile_id for t in shadow.tiles_for(region)] == [
            t.tile_id for t in mdd.tiles_for(region)
        ]
