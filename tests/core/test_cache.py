"""Tests for eviction policies and the two cache levels."""

import numpy as np
import pytest

from repro.core import (
    DiskCache,
    FIFOPolicy,
    GDSPolicy,
    LFUPolicy,
    LRUPolicy,
    MemoryTileCache,
    SizePolicy,
    make_policy,
    policy_names,
)
from repro.core.cache import AGING_PERIOD_CAPACITIES
from repro.errors import CacheError
from repro.tertiary import DISK_ARRAY, MB, SimClock


class TestPolicies:
    def test_lru_evicts_least_recent(self):
        policy = LRUPolicy()
        policy.insert("a", 1, 1.0)
        policy.insert("b", 1, 1.0)
        policy.access("a")
        assert policy.victim() == "b"

    def test_fifo_ignores_access(self):
        policy = FIFOPolicy()
        policy.insert("a", 1, 1.0)
        policy.insert("b", 1, 1.0)
        policy.access("a")
        assert policy.victim() == "a"

    def test_lfu_evicts_least_frequent(self):
        policy = LFUPolicy()
        policy.insert("a", 1, 1.0)
        policy.insert("b", 1, 1.0)
        policy.access("a")
        policy.access("a")
        policy.access("b")
        assert policy.victim() == "b"

    def test_size_evicts_largest(self):
        policy = SizePolicy()
        policy.insert("small", 10, 1.0)
        policy.insert("big", 1000, 1.0)
        assert policy.victim() == "big"

    def test_gds_prefers_keeping_costly_entries(self):
        policy = GDSPolicy()
        policy.insert("cheap", 100, 1.0)    # cost/size = 0.01
        policy.insert("costly", 100, 100.0)  # cost/size = 1.0
        assert policy.victim() == "cheap"

    def test_gds_inflation_ages_entries(self):
        policy = GDSPolicy()
        policy.insert("old_costly", 100, 50.0)  # priority 0.5
        policy.insert("cheap1", 100, 1.0)
        policy.remove(policy.victim())  # evict cheap1, inflation rises
        # Repeated evictions keep raising L; eventually old entries age out.
        for i in range(250):
            policy.insert(f"filler{i}", 100, 1.0)
            victim = policy.victim()
            if victim == "old_costly":
                break
            policy.remove(victim)
        else:
            pytest.fail("inflation never aged out the old costly entry")

    def test_empty_policy_has_no_victim(self):
        for name in policy_names():
            with pytest.raises(CacheError):
                make_policy(name).victim()

    def test_make_policy_unknown(self):
        with pytest.raises(CacheError):
            make_policy("random")

    def test_policy_names(self):
        assert set(policy_names()) == {"lru", "fifo", "lfu", "size", "gds"}


@pytest.fixture
def disk_cache():
    return DiskCache(10 * MB, LRUPolicy(), DISK_ARRAY, SimClock())


class TestDiskCache:
    def test_insert_lookup_read(self, disk_cache):
        disk_cache.insert("seg", 1024, 10.0, payload=b"x" * 1024)
        assert disk_cache.lookup("seg")
        assert disk_cache.read("seg", 100, 10) == b"x" * 10

    def test_miss_recorded(self, disk_cache):
        assert not disk_cache.lookup("ghost")
        assert disk_cache.stats.misses == 1

    def test_capacity_enforced_with_eviction(self, disk_cache):
        disk_cache.insert("a", 6 * MB, 1.0)
        disk_cache.insert("b", 6 * MB, 1.0)  # evicts a
        assert "a" not in disk_cache
        assert "b" in disk_cache
        assert disk_cache.stats.evictions == 1

    def test_oversized_entry_rejected(self, disk_cache):
        with pytest.raises(CacheError):
            disk_cache.insert("huge", 11 * MB, 1.0)

    def test_duplicate_insert_rejected(self, disk_cache):
        disk_cache.insert("a", 10, 1.0)
        with pytest.raises(CacheError):
            disk_cache.insert("a", 10, 1.0)

    def test_read_out_of_range_rejected(self, disk_cache):
        disk_cache.insert("a", 100, 1.0, payload=b"y" * 100)
        with pytest.raises(CacheError):
            disk_cache.read("a", 90, 20)

    def test_run_probe_counts_nothing(self, disk_cache):
        disk_cache.insert("a", 100, 1.0, start=300)
        assert disk_cache.run("a") == (300, 100)
        assert disk_cache.run("ghost") is None
        assert disk_cache.stats.lookups == 0

    def test_read_takes_segment_offsets_inside_the_run(self, disk_cache):
        payload = bytes(range(100))
        disk_cache.insert("a", 100, 1.0, payload=payload, start=300)
        assert disk_cache.read("a", 310, 5) == payload[10:15]
        assert disk_cache.read("a", 395, 5) == payload[95:]
        for offset, length in ((299, 2), (396, 5), (0, 10)):
            with pytest.raises(CacheError):
                disk_cache.read("a", offset, length)

    def test_read_uncached_rejected(self, disk_cache):
        with pytest.raises(CacheError):
            disk_cache.read("ghost", 0, 1)

    def test_invalidate_not_counted_as_eviction(self, disk_cache):
        disk_cache.insert("a", 10, 1.0)
        assert disk_cache.invalidate("a")
        assert not disk_cache.invalidate("a")
        assert disk_cache.stats.evictions == 0

    def test_evicts_in_policy_order(self):
        cache = DiskCache(1 * MB, LRUPolicy(), DISK_ARRAY, SimClock())
        for key in "abc":
            cache.insert(key, 300 * 1024, 1.0)
        cache.lookup("a")
        cache.insert("d", 300 * 1024, 1.0)  # evicts b, the least recent
        assert cache.keys() == ["a", "c", "d"]
        assert cache.run("b") is None
        assert cache.stats.evictions == 1

    def test_io_charges_clock(self, disk_cache):
        before = disk_cache.disk.clock.now
        disk_cache.insert("a", 1 * MB, 1.0)
        after_insert = disk_cache.disk.clock.now
        assert after_insert > before
        disk_cache.read("a", 0, 1024)
        assert disk_cache.disk.clock.now > after_insert

    def test_hit_ratio(self, disk_cache):
        disk_cache.insert("a", 10, 1.0)
        disk_cache.lookup("a")
        disk_cache.lookup("a")
        disk_cache.lookup("ghost")
        assert disk_cache.stats.hit_ratio == pytest.approx(2 / 3)


class TestMemoryTileCache:
    def test_put_get(self):
        cache = MemoryTileCache(1 * MB)
        cells = np.arange(10, dtype=np.float64)
        cache.put("obj", 0, cells)
        assert np.array_equal(cache.get("obj", 0), cells)

    def test_miss_returns_none(self):
        cache = MemoryTileCache(1 * MB)
        assert cache.get("obj", 0) is None
        assert cache.stats.misses == 1

    def test_oversized_tile_bypasses(self):
        cache = MemoryTileCache(100)
        cache.put("o", 0, np.zeros(1000, dtype=np.float64))
        assert cache.get("o", 0) is None
        assert cache.used_bytes == 0

    def test_replace_same_key_updates_bytes(self):
        cache = MemoryTileCache(4096)
        cache.put("o", 0, np.zeros(128, dtype=np.float64))
        cache.put("o", 0, np.zeros(256, dtype=np.float64))
        assert cache.used_bytes == 2048

    def test_invalidate_object(self):
        cache = MemoryTileCache(1 * MB)
        cache.put("a", 0, np.zeros(8))
        cache.put("a", 1, np.zeros(8))
        cache.put("b", 0, np.zeros(8))
        assert cache.invalidate_object("a") == 2
        assert cache.get("b", 0) is not None
        assert cache.get("a", 0) is None

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(CacheError):
            MemoryTileCache(0)

    def test_cached_tiles_are_read_only(self):
        # Regression: callers used to be able to scribble on the cached
        # array and silently corrupt every later read of the tile.
        cache = MemoryTileCache(1 * MB)
        cache.put("obj", 0, np.arange(10, dtype=np.float64))
        cached = cache.get("obj", 0)
        with pytest.raises(ValueError):
            cached[0] = 99.0
        assert cache.get("obj", 0)[0] == 0.0

    def test_put_freezes_the_stored_array(self):
        cache = MemoryTileCache(1 * MB)
        cells = np.arange(10, dtype=np.float64)
        cache.put("obj", 0, cells)
        with pytest.raises(ValueError):
            cells[3] = -1.0  # put() took ownership; the name is frozen too


TILE_BYTES = 1024


def tile(value: float) -> np.ndarray:
    return np.full(TILE_BYTES // 8, value, dtype=np.float64)


def access(cache: MemoryTileCache, tile_id: int, free: bool = False) -> bool:
    """One resolver access: get, and put on a miss; True on a hit."""
    if cache.get("o", tile_id) is not None:
        return True
    cache.put("o", tile_id, tile(tile_id), free=free)
    return False


class TestMemoryTilePolicy:
    """The admission-and-eviction rule: cost class, count, recency."""

    def test_free_view_never_displaces_a_decoded_tile(self):
        cache = MemoryTileCache(2 * TILE_BYTES)
        access(cache, 0)
        access(cache, 1)
        for _ in range(5):
            access(cache, 2, free=True)  # hot, but free to rebuild
        assert not cache.peek("o", 2)
        assert cache.peek("o", 0) and cache.peek("o", 1)
        assert cache.stats.rejections == 5

    def test_decoded_tile_displaces_a_hotter_free_view(self):
        cache = MemoryTileCache(2 * TILE_BYTES)
        for _ in range(5):
            access(cache, 0, free=True)
        access(cache, 1)
        access(cache, 2)
        assert not cache.peek("o", 0)
        assert cache.peek("o", 1) and cache.peek("o", 2)
        assert cache.stats.evictions == 1

    def test_equal_rank_newcomer_is_refused(self):
        cache = MemoryTileCache(2 * TILE_BYTES)
        access(cache, 0)
        access(cache, 1)
        access(cache, 2)  # count 1 == the residents' counts
        assert cache.peek("o", 0) and cache.peek("o", 1)
        assert not cache.peek("o", 2)
        assert access(cache, 0)  # a hit raises tile 0's count ...
        access(cache, 2)  # ... and tile 2, now at 2, displaces tile 1
        assert cache.peek("o", 2) and not cache.peek("o", 1)

    def test_one_pass_cold_scan_leaves_the_hot_set_resident(self):
        cache = MemoryTileCache(4 * TILE_BYTES)
        hot = [0, 1, 2, 3]
        for _ in range(3):
            for tile_id in hot:
                access(cache, tile_id)
        for tile_id in range(100, 200):
            access(cache, tile_id)
        assert all(cache.peek("o", tile_id) for tile_id in hot)
        assert all(access(cache, tile_id) for tile_id in hot)

    def test_remembered_count_readmits_a_returning_tile(self):
        # Tile 9 (3 accesses) is pushed out by two hotter tiles (4 each),
        # then returns after cold traffic: its remembered count gets it
        # back in on its second access, not after five fresh ones.
        cache = MemoryTileCache(2 * TILE_BYTES)
        for _ in range(3):
            access(cache, 9)
        for _ in range(4):
            access(cache, 10)
            access(cache, 11)
        assert not cache.peek("o", 9)
        for tile_id in range(12, 40):
            access(cache, tile_id)  # cold traffic, all refused
        access(cache, 9)
        access(cache, 9)
        assert cache.peek("o", 9)

    def test_refused_put_still_returns_a_frozen_array(self):
        cache = MemoryTileCache(TILE_BYTES)
        access(cache, 0)
        access(cache, 0)
        owned = tile(1.0)
        assert cache.put("o", 1, owned, free=True) is owned
        assert not owned.flags.writeable
        base = np.zeros(2 * TILE_BYTES // 8)
        view = base[: TILE_BYTES // 8]  # writable view of a foreign buffer
        frozen = cache.put("o", 2, view)
        assert frozen is not view and not frozen.flags.writeable
        assert base.flags.writeable
        assert not cache.peek("o", 1) and not cache.peek("o", 2)
        assert cache.stats.rejections == 2

    def test_refused_replacement_drops_the_superseded_cells(self):
        cache = MemoryTileCache(2 * TILE_BYTES)
        access(cache, 0)
        access(cache, 0)
        access(cache, 1)
        cache.put("o", 1, np.full(256, 1.0))  # 2 KiB: needs tile 0's room
        assert cache.get("o", 1) is None

    def test_history_stays_bounded(self):
        capacity_tiles = 4
        cache = MemoryTileCache(capacity_tiles * TILE_BYTES)
        for tile_id in range(50_000):
            access(cache, tile_id)
        bound = 2 * AGING_PERIOD_CAPACITIES * capacity_tiles
        assert len(cache._counts) <= bound  # remembered keys, not 50 000

    def test_forced_admissions_always_land(self):
        cache = MemoryTileCache(2 * TILE_BYTES)
        for _ in range(4):
            access(cache, 0)
            access(cache, 1)
        for tile_id in range(2, 10):
            cache.put("o", tile_id, tile(tile_id), free=True, force=True)
            assert cache.peek("o", tile_id)
        assert cache.used_bytes <= cache.capacity_bytes

    def test_pinned_tile_is_never_evicted(self):
        cache = MemoryTileCache(2 * TILE_BYTES)
        access(cache, 0)
        cache.pin("o", 0)
        access(cache, 1)
        for tile_id in range(2, 6):
            cache.put("o", tile_id, tile(tile_id), force=True)
        assert cache.peek("o", 0) and cache.peek("o", 5)
        cache.pin("o", 5)
        cache.put("o", 6, tile(6), force=True)  # nothing evictable left
        assert not cache.peek("o", 6)
        assert cache.pinned_tiles == 2
        cache.unpin("o", 0)
        cache.unpin("o", 5)
        assert cache.pinned_tiles == 0
        with pytest.raises(CacheError):
            cache.unpin("o", 0)
        with pytest.raises(CacheError):
            cache.pin("o", 6)  # absent: nothing to shield

    def test_invalidate_object_forgets_its_history(self):
        cache = MemoryTileCache(TILE_BYTES)
        for _ in range(3):
            access(cache, 0)
        cache.invalidate_object("o")
        cache.get("p", 0)
        cache.put("p", 0, tile(1.0))
        access(cache, 0)  # count 1 again: ties with p/0, refused
        assert not cache.peek("o", 0) and cache.peek("p", 0)
