"""Stateful (hypothesis) model checking of both cache levels.

Drives the disk cache through arbitrary insert/lookup/invalidate/pin/unpin
sequences against a live-membership model (kept in sync by diffing the
cache's keys around every insert, the one operation that evicts), asserting the real cache never disagrees about
membership, never exceeds capacity, serves exactly the bytes that were
inserted — and never, under any interleaving, evicts a pinned entry.

Drives the memory tile cache through arbitrary get/put/invalidate/pin
sequences (free or decoded, forced or not), asserting it never exceeds
capacity, only hands out read-only arrays, never returns cells other than
the last ones stored for a tile, and never evicts a pinned tile.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

import numpy as np
import pytest

from repro.core import LRUPolicy, MemoryTileCache
from repro.core.cache import DiskCache
from repro.errors import CacheError, CachePinnedError
from repro.tertiary import DISK_ARRAY, SimClock

CAPACITY = 1000


class DiskCacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        #: model of CURRENT cache content: key -> payload
        self.present = {}
        #: model of pin reference counts: key -> count (> 0)
        self.pins = {}
        self.cache = DiskCache(CAPACITY, LRUPolicy(), DISK_ARRAY, SimClock())

    def _forget_evicted(self, before):
        """Drop from the model what an insert evicted out of *before*."""
        evicted = before - set(self.cache.keys())
        # THE staging-pipeline safety property: eviction never touches a
        # pinned entry, no matter what sequence led here.
        assert not evicted & set(self.pins), f"pinned {evicted & set(self.pins)} evicted"
        for key in evicted:
            del self.present[key]

    def _pinned_bytes(self) -> int:
        return sum(len(self.present[k]) for k in self.pins)

    keys = Bundle("keys")

    @rule(
        target=keys,
        key=st.text(alphabet="abcdef", min_size=1, max_size=3),
        size=st.integers(1, 400),
        pins=st.integers(0, 2),
    )
    def insert(self, key, size, pins):
        if key in self.cache:
            return key
        payload = (key * (size // len(key) + 1)).encode()[:size]
        before = set(self.cache.keys())
        try:
            self.cache.insert(
                key, size, refetch_cost=1.0, payload=payload, pins=pins
            )
        except CachePinnedError:
            # Only legitimate when the pinned residue leaves no room even
            # after evicting every unpinned entry — which insert may have
            # done before it gave up.
            self._forget_evicted(before)
            assert self._pinned_bytes() + size > CAPACITY
            assert key not in self.cache
            return key
        self._forget_evicted(before)
        self.present[key] = payload
        if pins:
            self.pins[key] = pins
        return key

    @rule(key=keys)
    def lookup(self, key):
        assert self.cache.lookup(key) == (key in self.present)

    @rule(key=keys)
    def read_back(self, key):
        if key not in self.present:
            return
        payload = self.present[key]
        assert self.cache.read(key, 0, len(payload)) == payload

    @rule(key=keys)
    def pin(self, key):
        if key in self.present:
            self.cache.pin(key)
            self.pins[key] = self.pins.get(key, 0) + 1
        else:
            with pytest.raises(CacheError):
                self.cache.pin(key)

    @rule(key=keys)
    def unpin(self, key):
        if self.pins.get(key):
            self.cache.unpin(key)
            if self.pins[key] == 1:
                del self.pins[key]
            else:
                self.pins[key] -= 1
        else:
            with pytest.raises(CacheError):
                self.cache.unpin(key)

    @rule(key=keys)
    def invalidate(self, key):
        expected = key in self.present
        assert self.cache.invalidate(key) == expected
        self.present.pop(key, None)
        self.pins.pop(key, None)

    @invariant()
    def capacity_respected(self):
        assert self.cache.used_bytes <= CAPACITY

    @invariant()
    def membership_agrees(self):
        assert set(self.cache.keys()) == set(self.present)

    @invariant()
    def pins_agree(self):
        assert set(self.cache.pinned_keys()) == set(self.pins)
        for key, count in self.pins.items():
            assert self.cache.pin_count(key) == count
        assert self.cache.pinned_bytes == self._pinned_bytes()


TestDiskCacheMachine = DiskCacheMachine.TestCase
TestDiskCacheMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)


TILE_CAPACITY = 4096


class MemoryTileCacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cache = MemoryTileCache(TILE_CAPACITY)
        #: model: (object, tile) -> the last cells stored for it
        self.last = {}
        #: model of pin reference counts
        self.pins = {}
        #: pinned tiles not replaced or invalidated since: must stay resident
        self.guarded = set()
        self.version = 0

    tiles = st.tuples(st.sampled_from("ab"), st.integers(0, 7))

    @rule(key=tiles, size=st.sampled_from([256, 512, 1024, 2048, 8192]),
          free=st.booleans(), force=st.booleans())
    def put(self, key, size, free, force):
        self.version += 1
        cells = np.full(size // 8, float(self.version))
        returned = self.cache.put(*key, cells, free=free, force=force)
        self.guarded.discard(key)
        assert not returned.flags.writeable
        assert np.array_equal(returned, cells)
        self.last[key] = returned.copy()

    @rule(key=tiles)
    def get(self, key):
        cells = self.cache.get(*key)
        if cells is not None:
            assert not cells.flags.writeable
            assert np.array_equal(cells, self.last[key])

    @rule(key=tiles)
    def pin(self, key):
        if self.cache.peek(*key):
            self.cache.pin(*key)
            self.pins[key] = self.pins.get(key, 0) + 1
            self.guarded.add(key)
        else:
            with pytest.raises(CacheError):
                self.cache.pin(*key)

    @rule(key=tiles)
    def unpin(self, key):
        if self.pins.get(key):
            self.cache.unpin(*key)
            self.pins[key] -= 1
            if not self.pins[key]:
                del self.pins[key]
                self.guarded.discard(key)
        else:
            with pytest.raises(CacheError):
                self.cache.unpin(*key)

    @rule(object_name=st.sampled_from("ab"))
    def invalidate(self, object_name):
        self.cache.invalidate_object(object_name)
        for key in [k for k in self.last if k[0] == object_name]:
            del self.last[key]
            self.guarded.discard(key)

    @invariant()
    def capacity_respected(self):
        assert self.cache.used_bytes <= TILE_CAPACITY

    @invariant()
    def resident_bytes_agree(self):
        resident = [k for k in self.last if self.cache.peek(*k)]
        assert self.cache.used_bytes == sum(self.last[k].nbytes for k in resident)

    @invariant()
    def pinned_tiles_stay_resident(self):
        for key in self.guarded:
            assert self.cache.peek(*key), f"pinned tile {key!r} was evicted"
        assert self.cache.pinned_tiles == len(self.pins)


TestMemoryTileCacheMachine = MemoryTileCacheMachine.TestCase
TestMemoryTileCacheMachine.settings = settings(
    max_examples=50, stateful_step_count=50, deadline=None
)
