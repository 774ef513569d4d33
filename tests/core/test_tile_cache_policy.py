"""The memory tile cache keeps hot DEFLATE tiles decoded.

A stored-frame tile decodes as a free view over disk-cache bytes; a
DEFLATE tile costs an inflate on every miss.  A one-pass scan over an
incompressible object (all stored frames) must therefore not push the
hot, compressible tiles out of the cache — under plain LRU it did, and
every later read of the hot region inflated its tiles again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig, ZlibCodec
from repro.tertiary import MB

SIDE = 64
TILE = 16
TILE_BYTES = TILE * TILE * 8


@pytest.fixture
def inflates(monkeypatch):
    """Count ``ZlibCodec.decompress_view`` calls that really inflate."""
    calls = []
    original = ZlibCodec.decompress_view

    def counted(self, stored, expected_size):
        if not self.decodes_to_view(stored):
            calls.append(expected_size)
        return original(self, stored, expected_size)

    monkeypatch.setattr(ZlibCodec, "decompress_view", counted)
    return calls


def build():
    rng = np.random.default_rng(7)
    oracle = {
        "hot": np.round(rng.standard_normal((SIDE, SIDE)) * 4),  # DEFLATE frames
        "cold": rng.standard_normal((SIDE, SIDE)),  # stored frames
    }
    heaven = Heaven(
        HeavenConfig(
            compression="zlib",
            super_tile_bytes=4 * TILE_BYTES,
            disk_cache_bytes=16 * MB,
            memory_cache_bytes=8 * TILE_BYTES,  # half of one object
        )
    )
    heaven.create_collection("c")
    for name, cells in oracle.items():
        heaven.insert("c", MDD.from_array(name, cells, tiling=RegularTiling((TILE, TILE))))
        heaven.archive("c", name)
    return heaven, oracle


def read(heaven, oracle, name, region):
    cells, report = heaven.read_with_report("c", name, region)
    assert np.array_equal(cells, oracle[name][region.to_slices(MInterval.from_shape((SIDE, SIDE)))])
    return report


def test_hot_deflate_tiles_survive_a_cold_stored_frame_scan(inflates):
    heaven, oracle = build()
    entry = heaven.archived("cold")
    assert all(
        size == TILE_BYTES + 1 for size in entry.stored_sizes.values()
    ), "the cold object must be stored frames only"
    hot_region = MInterval.of((0, 2 * TILE - 1), (0, 2 * TILE - 1))  # 4 tiles
    for _ in range(3):
        read(heaven, oracle, "hot", hot_region)
    assert len(inflates) == 4  # each hot tile inflated once
    read(heaven, oracle, "cold", MInterval.from_shape((SIDE, SIDE)))  # 16 tiles
    report = read(heaven, oracle, "hot", hot_region)
    assert len(inflates) == 4  # still decoded: no inflate after the scan
    assert report.restages == 0 and heaven.restages == 0
    assert heaven.memory_cache.stats.rejections > 0
    heaven.assert_quiescent()
