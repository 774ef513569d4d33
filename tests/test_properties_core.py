"""Property-based tests on HEAVEN-core invariants (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arrays import DOUBLE, MDD, MInterval, RegularTiling
from repro.core import (
    AccessStatistics,
    ElevatorScheduler,
    TapeRequest,
    intra_cluster_order,
    optimal_super_tile_bytes,
    star_partition,
)
from repro.tertiary import DLT_7000, MB, TapeLibrary, scaled_profile

PROFILE = scaled_profile(DLT_7000, 256 * MB)


def request_batches():
    """Batches of requests over a handful of media with random offsets."""

    def build(entries):
        return [
            TapeRequest(
                key=f"r{i}",
                medium_id=f"m{medium}",
                offset=offset * 1024,
                length=1024,
            )
            for i, (medium, offset) in enumerate(entries)
        ]

    return st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 1000)),
        min_size=1,
        max_size=40,
    ).map(build)


class TestSchedulerProperties:
    @given(request_batches())
    @settings(max_examples=50)
    def test_elevator_is_a_permutation(self, batch):
        library = TapeLibrary(PROFILE)
        for m in range(5):
            library.new_medium(f"m{m}")
        ordered = ElevatorScheduler().order(batch, library)
        assert sorted(r.key for r in ordered) == sorted(r.key for r in batch)

    @given(request_batches())
    @settings(max_examples=50)
    def test_elevator_groups_media_contiguously(self, batch):
        library = TapeLibrary(PROFILE)
        for m in range(5):
            library.new_medium(f"m{m}")
        ordered = ElevatorScheduler().order(batch, library)
        seen = []
        for request in ordered:
            if not seen or seen[-1] != request.medium_id:
                assert request.medium_id not in seen  # no medium revisited
                seen.append(request.medium_id)

    @given(request_batches())
    @settings(max_examples=50)
    def test_elevator_sweeps_forward_within_media(self, batch):
        library = TapeLibrary(PROFILE)
        for m in range(5):
            library.new_medium(f"m{m}")
        ordered = ElevatorScheduler().order(batch, library)
        last_offset = {}
        for request in ordered:
            previous = last_offset.get(request.medium_id)
            if previous is not None:
                assert request.offset >= previous
            last_offset[request.medium_id] = request.offset


class TestStarProperties3D:
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_3d_partition_exact_and_contiguous(self, gx, gy, gz, target_tiles):
        mdd = MDD(
            "p",
            MInterval.from_shape((gx * 4, gy * 4, gz * 4)),
            DOUBLE,
            tiling=RegularTiling((4, 4, 4)),
        )
        tile_bytes = 4 * 4 * 4 * 8
        super_tiles = star_partition(mdd, target_tiles * tile_bytes)
        seen = [t for stile in super_tiles for t in stile.tile_ids]
        assert sorted(seen) == sorted(mdd.tiles)
        for stile in super_tiles:
            # Hull contains exactly the member cells: blocks have no holes.
            member_cells = sum(
                mdd.tiles[t].domain.cell_count for t in stile.tile_ids
            )
            assert stile.domain.cell_count == member_cells


class TestIntraOrderProperties:
    @given(st.permutations([0, 1, 2]))
    @settings(max_examples=6, deadline=None)
    def test_intra_order_is_permutation_of_members(self, fractions_order):
        mdd = MDD(
            "p",
            MInterval.from_shape((16, 16, 16)),
            DOUBLE,
            tiling=RegularTiling((4, 4, 4)),
        )
        stats = AccessStatistics(dimension=3)
        region_axes = []
        for axis, rank in enumerate(fractions_order):
            extent = [16, 8, 2][rank]
            region_axes.append((0, extent - 1))
        stats.record(MInterval.of(*region_axes), mdd.domain, 8)
        stile = star_partition(mdd, mdd.size_bytes)[0]
        ordered = intra_cluster_order(stile, mdd, stats)
        assert sorted(ordered) == sorted(stile.tile_ids)


class TestOptimalSizeProperties:
    @given(
        st.floats(1e3, 1e12),
        st.integers(1, 10**7),
    )
    @settings(max_examples=50)
    def test_clamped_within_bounds_and_medium(self, request_bytes, min_bytes):
        max_bytes = min_bytes * 64
        size = optimal_super_tile_bytes(
            DLT_7000, request_bytes, min_bytes, max_bytes
        )
        assert min_bytes <= size <= max_bytes or size == DLT_7000.media_capacity_bytes
        assert size <= DLT_7000.media_capacity_bytes

    @given(st.floats(1e3, 1e12), st.floats(2.0, 100.0))
    @settings(max_examples=50)
    def test_monotone_in_request_size(self, request_bytes, factor):
        small = optimal_super_tile_bytes(DLT_7000, request_bytes, 1, 10**15)
        large = optimal_super_tile_bytes(
            DLT_7000, request_bytes * factor, 1, 10**15
        )
        assert large >= small
