"""Tests for archive lifecycle: delete, update, re-import, prefetch."""

import contextlib

import numpy as np
import pytest

from repro import FaultPlan, RetryExhaustedError
from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.core.clustering import Placement, PlacementPolicy
from repro.errors import HeavenError
from repro.tertiary import DLT_7000, MB, scaled_profile


def build_heaven(**overrides):
    config = HeavenConfig(
        super_tile_bytes=32 * 1024,  # 4 tiles per super-tile -> 4 super-tiles
        disk_cache_bytes=16 * MB,
        memory_cache_bytes=4 * MB,
        **overrides,
    )
    heaven = Heaven(config)
    heaven.create_collection("col")
    mdd = MDD(
        "obj",
        MInterval.of((0, 127), (0, 127)),
        DOUBLE,
        tiling=RegularTiling((32, 32)),
        source=HashedNoiseSource(3, 0.0, 50.0),
    )
    heaven.insert("col", mdd)
    heaven.archive("col", "obj")
    return heaven, mdd


class TestDelete:
    def test_delete_removes_all_layers(self):
        heaven, mdd = build_heaven()
        heaven.read("col", "obj", MInterval.of((0, 31), (0, 31)))
        heaven.delete("col", "obj")
        assert not heaven.is_archived("obj")
        assert "obj" not in heaven.collection("col")
        assert not heaven.precomputed.has_object("obj")
        # All tape segments gone from the directory.
        assert all(
            len(m) == 0 for m in heaven.library.media()
        )

    def test_read_after_delete_fails(self):
        heaven, _ = build_heaven()
        heaven.delete("col", "obj")
        with pytest.raises(Exception):
            heaven.read("col", "obj", MInterval.of((0, 1), (0, 1)))


class TestUpdate:
    def test_update_changes_cells(self):
        heaven, mdd = build_heaven()
        region = MInterval.of((10, 19), (10, 19))
        patch = np.full((10, 10), -77.0)
        count = heaven.update("col", "obj", region, patch)
        assert count >= 1
        assert np.array_equal(heaven.read("col", "obj", region), patch)

    def test_update_preserves_rest_of_object(self):
        heaven, mdd = build_heaven()
        untouched = MInterval.of((100, 120), (100, 120))
        before = heaven.read("col", "obj", untouched).copy()
        heaven.update(
            "col", "obj", MInterval.of((0, 9), (0, 9)), np.zeros((10, 10))
        )
        assert np.array_equal(heaven.read("col", "obj", untouched), before)

    def test_update_refreshes_precomputed(self):
        heaven, _ = build_heaven()
        region = MInterval.of((0, 31), (0, 31))  # exactly tile 0
        heaven.update("col", "obj", region, np.full((32, 32), 4.0))
        results = heaven.query("select avg_cells(c[0:31, 0:31]) from col as c")
        assert results[0].scalar() == pytest.approx(4.0)

    def test_update_writes_new_segments(self):
        heaven, _ = build_heaven()
        segments_before = sum(len(m) for m in heaven.library.media())
        heaven.update(
            "col", "obj", MInterval.of((0, 9), (0, 9)), np.zeros((10, 10))
        )
        segments_after = sum(len(m) for m in heaven.library.media())
        assert segments_after == segments_before  # one deleted, one added

    def test_update_unarchived_object_writes_in_place(self):
        heaven = Heaven(HeavenConfig(super_tile_bytes=512 * 1024))
        heaven.create_collection("d")
        mdd = MDD("plain", MInterval.of((0, 31), (0, 31)), DOUBLE)
        heaven.insert("d", mdd)
        count = heaven.update(
            "d", "plain", MInterval.of((0, 3), (0, 3)), np.ones((4, 4))
        )
        assert count == 0
        assert np.array_equal(
            heaven.read("d", "plain", MInterval.of((0, 3), (0, 3))), np.ones((4, 4))
        )


class OnePerMedium(PlacementPolicy):
    """Super-tile *i* goes to the *i*-th named medium."""

    def __init__(self, media):
        self.media = media

    def plan(self, super_tiles, library):
        return [Placement(st, m) for st, m in zip(super_tiles, self.media)]


class TestUpdateKeepsAppendMedium:
    """A two-drive update stages super-tiles from two shelved media while
    its append medium sits in a drive: the staging works around that drive
    instead of stowing the medium the rewrite then fetches back."""

    @pytest.mark.parametrize("keep, exchanges, kept_mounts", [(True, 2, 1), (False, 3, 0)])
    def test_staging_leaves_the_append_medium_mounted(self, keep, exchanges, kept_mounts):
        heaven = Heaven(HeavenConfig(
            tape_profile=scaled_profile(DLT_7000, 96 * 1024),
            num_drives=2,
            super_tile_bytes=32 * 1024,
            disk_cache_bytes=16 * MB,
            memory_cache_bytes=4 * MB,
        ))
        library = heaven.library
        for medium_id in ("a", "b", "c"):
            library.new_medium(medium_id)
        heaven.create_collection("col")
        domain = MInterval.of((0, 63), (0, 127))
        heaven.insert("col", MDD(
            "obj", domain, DOUBLE,
            tiling=RegularTiling((32, 32)),
            source=HashedNoiseSource(5, 0.0, 50.0),
        ))
        expected = heaven.read("col", "obj", domain).copy()
        heaven.archive("col", "obj", placement=OnePerMedium(["a", "b"]))
        super_tiles = heaven.archived("obj").super_tiles
        assert [library.locate(st.segment_name) for st in super_tiles] == ["a", "b"]
        size = max(st.size_bytes for st in super_tiles)
        for medium_id in ("a", "b"):  # leave no room for a rewrite
            filler = library.medium(medium_id).free_bytes - size + 1
            library.write_segment(f"fill-{medium_id}", filler, medium_id=medium_id)
        assert library.append_target(size) == "c"
        library.unmount_all()
        library.mount("c", library.drives[0])
        if not keep:  # plain holder / free / LRU drive choice
            library.keep_mounted = lambda medium_id: contextlib.nullcontext()
        before = library.stats()

        region = MInterval.of((1, 62), (1, 126))  # every tile of both super-tiles
        patch = np.arange(62 * 126, dtype=np.float64).reshape(62, 126)
        assert heaven.update("col", "obj", region, patch) == 2

        after = library.stats()
        assert after.exchanges - before.exchanges == exchanges
        assert after.kept_mounts - before.kept_mounts == kept_mounts
        assert [library.locate(st.segment_name) for st in super_tiles] == ["c", "c"]
        expected[1:63, 1:127] = patch
        heaven.memory_cache.invalidate_object("obj")
        for key in heaven.disk_cache.keys():
            heaven.disk_cache.invalidate(key)
        assert heaven.read("col", "obj", domain).tobytes() == expected.tobytes()


#: Unaligned in both axes: 10 edge tiles around 2 interior tiles.
EDGE_BOX = MInterval.of((5, 70), (9, 100))
CONDENSER = "select add_cells(c[5:70, 9:100]) from col as c"


def condense(heaven):
    return heaven.query(CONDENSER)[0].scalar()


def numpy_sum(heaven):
    return float(heaven.read("col", "obj", EDGE_BOX).sum(dtype=np.float64))


class TestEdgePartials:
    """A repeated condenser answers its edge tiles from remembered partials;
    every path that changes an archived object's cells forgets them."""

    def test_repeated_condenser_touches_no_cache(self):
        heaven, _ = build_heaven(compression="zlib")
        first = condense(heaven)
        assert heaven.precomputed.stats.edge_read == 10
        lookups = heaven.memory_cache.stats.lookups
        disk_reads = heaven.disk_cache.disk.stats.reads
        assert condense(heaven) == first
        assert heaven.memory_cache.stats.lookups == lookups
        assert heaven.disk_cache.disk.stats.reads == disk_reads
        assert heaven.precomputed.stats.edge_reused == 10
        assert first == pytest.approx(numpy_sum(heaven))

    def test_update_of_an_edge_overlap(self):
        heaven, _ = build_heaven(compression="zlib")
        before = condense(heaven)
        heaven.update("col", "obj", MInterval.of((5, 9), (9, 12)), np.full((5, 4), 1e4))
        after = condense(heaven)
        assert after != before
        assert after == pytest.approx(numpy_sum(heaven))

    def test_failed_update_keeps_old_partials(self):
        plan = FaultPlan()
        heaven, _ = build_heaven(compression="zlib", fault_plan=plan)
        before = condense(heaven)
        old = numpy_sum(heaven)
        heaven.library.unmount_all()
        plan.fail_next("mount", count=50)
        with pytest.raises(RetryExhaustedError):
            heaven.update(
                "col", "obj", MInterval.of((5, 9), (9, 12)), np.full((5, 4), 1e4)
            )
        plan.reset()
        reused = heaven.precomputed.stats.edge_reused
        assert condense(heaven) == before
        assert heaven.precomputed.stats.edge_reused == reused + 10
        assert numpy_sum(heaven) == old

    def test_delete_and_rearchive_under_the_same_name(self):
        heaven, _ = build_heaven(compression="zlib")
        before = condense(heaven)
        heaven.delete("col", "obj")
        heaven.insert("col", MDD(
            "obj",
            MInterval.of((0, 127), (0, 127)),
            DOUBLE,
            tiling=RegularTiling((32, 32)),
            source=HashedNoiseSource(4, 0.0, 50.0),
        ))
        heaven.archive("col", "obj")
        after = condense(heaven)
        assert after != before
        assert after == pytest.approx(numpy_sum(heaven))


class TestReimport:
    def test_reimport_restores_disk_residence(self):
        heaven, mdd = build_heaven()
        whole = mdd.read_all().copy()
        count = heaven.reimport("col", "obj")
        assert count == mdd.tile_count()
        assert not heaven.is_archived("obj")
        # Reads no longer touch tape.
        tape_before = heaven.library.stats().bytes_read
        got = heaven.read("col", "obj", mdd.domain)
        assert np.array_equal(got, whole)
        assert heaven.library.stats().bytes_read == tape_before

    def test_reimport_unarchived_rejected(self):
        heaven, _ = build_heaven()
        heaven.reimport("col", "obj")
        with pytest.raises(HeavenError):
            heaven.reimport("col", "obj")


class TestPrefetch:
    def test_sequential_prefetch_stages_neighbours(self):
        heaven, mdd = build_heaven(prefetch="sequential")
        entry = heaven.archived("obj")
        first_st = entry.super_tiles[0]
        region = first_st.domain
        heaven.read("col", "obj", region)
        # The next super-tile in cluster order was prefetched too.
        neighbour = entry.super_tiles[1]
        assert neighbour.segment_name in heaven.disk_cache

    def test_prefetched_neighbour_read_is_cache_hit(self):
        heaven, mdd = build_heaven(prefetch="sequential")
        entry = heaven.archived("obj")
        heaven.read("col", "obj", entry.super_tiles[0].domain)
        _c, report = heaven.read_with_report(
            "col", "obj", entry.super_tiles[1].domain
        )
        assert report.bytes_from_tape == 0

    def test_no_prefetch_by_default(self):
        heaven, mdd = build_heaven()
        entry = heaven.archived("obj")
        heaven.read("col", "obj", entry.super_tiles[0].domain)
        assert entry.super_tiles[1].segment_name not in heaven.disk_cache

    def test_invalid_prefetch_config_rejected(self):
        with pytest.raises(ValueError):
            HeavenConfig(prefetch="psychic")
