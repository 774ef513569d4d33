"""Property-based tests (hypothesis) on the core data structures.

Each property encodes an invariant the rest of the system silently relies
on: interval algebra laws, tiling exact-cover, index completeness, STAR
partition correctness, cache capacity bounds, and end-to-end read fidelity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.arrays import (
    DOUBLE,
    GridIndex,
    HashedNoiseSource,
    MDD,
    MInterval,
    RegularTiling,
    SInterval,
)
from repro.core import (
    LRUPolicy,
    MemoryTileCache,
    star_partition,
    tiles_to_super_tiles,
)
from repro.core.cache import DiskCache
from repro.tertiary import DISK_ARRAY, SimClock
from tests.conftest import assert_exact_cover


# -- strategies ----------------------------------------------------------------

def sintervals(max_abs=200, max_extent=60):
    return st.tuples(
        st.integers(-max_abs, max_abs), st.integers(0, max_extent)
    ).map(lambda t: SInterval(t[0], t[0] + t[1]))


def mintervals(dims=st.integers(1, 3)):
    return dims.flatmap(
        lambda d: st.tuples(*([sintervals()] * d)).map(MInterval)
    )


def domains_2d(max_extent=40):
    return st.tuples(
        st.integers(1, max_extent), st.integers(1, max_extent)
    ).map(lambda t: MInterval.from_shape(t))


# -- interval algebra -------------------------------------------------------------


class TestIntervalProperties:
    @given(sintervals(), sintervals())
    def test_intersection_commutative(self, a, b):
        assert a.intersection(b) == b.intersection(a)

    @given(sintervals(max_abs=25, max_extent=40), sintervals(max_abs=25, max_extent=40))
    def test_intersection_contained_in_both(self, a, b):
        overlap = a.intersection(b)
        assume(overlap is not None)
        assert a.contains_interval(overlap)
        assert b.contains_interval(overlap)

    @given(sintervals(), sintervals())
    def test_hull_contains_both(self, a, b):
        hull = a.hull(b)
        assert hull.contains_interval(a)
        assert hull.contains_interval(b)

    @given(sintervals(), st.integers(1, 20))
    def test_split_regular_partitions(self, interval, chunk):
        parts = interval.split_regular(chunk)
        assert sum(p.extent for p in parts) == interval.extent
        assert parts[0].lo == interval.lo
        assert parts[-1].hi == interval.hi
        for left, right in zip(parts, parts[1:]):
            assert right.lo == left.hi + 1

    @given(mintervals(), mintervals())
    def test_minterval_intersection_symmetry(self, a, b):
        assume(a.dimension == b.dimension)
        assert a.intersection(b) == b.intersection(a)

    @given(mintervals())
    def test_parse_str_roundtrip(self, domain):
        assert MInterval.parse(str(domain)) == domain

    @given(mintervals())
    def test_cell_count_is_shape_product(self, domain):
        assert domain.cell_count == int(np.prod(domain.shape))


# -- tiling and indexes --------------------------------------------------------------


class TestTilingProperties:
    @given(
        domains_2d(max_extent=24),
        st.integers(1, 15),
        st.integers(1, 15),
    )
    @settings(max_examples=50, deadline=None)
    def test_regular_tiling_exact_cover(self, domain, tile_w, tile_h):
        tiles = RegularTiling((tile_w, tile_h)).tile_domains(domain)
        assert_exact_cover(domain, tiles)

    @given(
        domains_2d(max_extent=30),
        st.integers(2, 8),
        st.integers(2, 8),
        st.data(),
    )
    @settings(max_examples=40)
    def test_grid_index_matches_bruteforce(self, domain, tile_w, tile_h, data):
        tiles = RegularTiling((tile_w, tile_h)).tile_domains(domain)
        index = GridIndex(domain, (tile_w, tile_h))
        lo0 = data.draw(st.integers(domain[0].lo, domain[0].hi))
        lo1 = data.draw(st.integers(domain[1].lo, domain[1].hi))
        hi0 = data.draw(st.integers(lo0, domain[0].hi))
        hi1 = data.draw(st.integers(lo1, domain[1].hi))
        region = MInterval.of((lo0, hi0), (lo1, hi1))
        expect = sorted(i for i, t in enumerate(tiles) if t.intersects(region))
        assert index.intersecting(region) == expect


# -- STAR partition ------------------------------------------------------------------


class TestStarProperties:
    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 20),
    )
    @settings(max_examples=40)
    def test_partition_is_exact_and_ordered(self, tiles_x, tiles_y, target_tiles):
        mdd = MDD(
            "p",
            MInterval.from_shape((tiles_x * 8, tiles_y * 8)),
            DOUBLE,
            tiling=RegularTiling((8, 8)),
        )
        tile_bytes = 8 * 8 * 8
        super_tiles = star_partition(mdd, target_tiles * tile_bytes)
        seen = [t for stile in super_tiles for t in stile.tile_ids]
        assert sorted(seen) == sorted(mdd.tiles)
        assert len(seen) == len(set(seen))
        mapping = tiles_to_super_tiles(super_tiles)
        assert set(mapping) == set(mdd.tiles)
        # Hull never exceeds the object and sizes are positive.
        for stile in super_tiles:
            assert mdd.domain.contains(stile.domain)
            assert stile.size_bytes > 0


# -- caches --------------------------------------------------------------------------


class TestCacheProperties:
    @given(
        st.lists(
            st.tuples(st.text(min_size=1, max_size=4), st.integers(1, 100)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=40)
    def test_disk_cache_never_exceeds_capacity(self, inserts):
        cache = DiskCache(200, LRUPolicy(), DISK_ARRAY, SimClock())
        for key, size in inserts:
            if key in cache or size > 200:
                continue
            cache.insert(key, size, 1.0)
            assert cache.used_bytes <= 200

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=80))
    @settings(max_examples=40)
    def test_memory_cache_consistency(self, accesses):
        cache = MemoryTileCache(5 * 80)  # room for 5 ten-byte tiles... approx
        stored = {}
        for tile_id in accesses:
            cells = np.full(10, tile_id, dtype=np.int8)  # 10 bytes
            cache.put("o", tile_id, cells)
            stored[tile_id] = cells
        # Everything retrievable is correct (no corruption on eviction).
        for tile_id, cells in stored.items():
            got = cache.get("o", tile_id)
            if got is not None:
                assert np.array_equal(got, cells)
        assert cache.used_bytes <= cache.capacity_bytes


# -- end-to-end read fidelity -----------------------------------------------------------


class TestReadFidelityProperties:
    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_mdd_read_equals_source(self, data):
        width = data.draw(st.integers(8, 60))
        height = data.draw(st.integers(8, 60))
        tile = data.draw(st.integers(3, 17))
        seed = data.draw(st.integers(0, 5))
        mdd = MDD(
            "f",
            MInterval.from_shape((width, height)),
            DOUBLE,
            tiling=RegularTiling((tile, tile)),
            source=HashedNoiseSource(seed),
        )
        lo0 = data.draw(st.integers(0, width - 1))
        lo1 = data.draw(st.integers(0, height - 1))
        hi0 = data.draw(st.integers(lo0, width - 1))
        hi1 = data.draw(st.integers(lo1, height - 1))
        region = MInterval.of((lo0, hi0), (lo1, hi1))
        direct = mdd.source.region(region, DOUBLE)
        assembled = mdd.read(region)
        assert np.array_equal(assembled, direct)
