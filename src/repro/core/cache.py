"""Caching hierarchy for array data (Kapitel 3.6).

Two levels above tape:

* a **disk cache** holding the run of each super-tile segment staged from
  tape as ``(key, start, length, bytes)`` — the level that turns repeated
  tape mounts into disk reads;
* a **memory tile cache** holding decoded tile payloads — the level that
  turns repeated disk reads (and, above all, repeated inflates) into
  pointer lookups.

Disk-cache eviction is pluggable (Kapitel 3.6.3 Verdrängungsstrategien):
LRU, FIFO, LFU, SIZE (largest first) and GDS (GreedyDual-Size, which weighs
the tape cost of re-fetching a segment against its size — tailored to
tertiary storage where re-fetch cost varies with media placement).

The memory tile cache has one fixed rule in the same cost-aware spirit:
a tile's rank is its rebuild-cost class (a *free* zero-copy view over
disk-cache bytes below a *decoded* tile that cost an inflate, a BLOB read
or a regeneration), then its access count — remembered across evictions
and halved every :data:`AGING_PERIOD_CAPACITIES` × capacity lookups — then
recency.  The lowest rank is evicted first, and a tile that could only get
in by displacing an equal or higher rank is not admitted at all.
"""

from __future__ import annotations

import heapq
import logging
from collections import OrderedDict
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Tuple, Union

import numpy as np

from ..errors import CacheError, CachePinnedError
from ..tertiary.clock import SimClock
from ..tertiary.disk import DiskDevice
from ..tertiary.profiles import DiskProfile

logger = logging.getLogger("repro.core.cache")


# -- eviction policies --------------------------------------------------------


_NO_EXCLUDE: FrozenSet[str] = frozenset()


class EvictionPolicy:
    """Tracks entries and nominates victims.  Sizes/costs are in bytes/seconds."""

    name = "abstract"

    def insert(self, key: str, size: int, cost: float) -> None:
        raise NotImplementedError

    def access(self, key: str) -> None:
        raise NotImplementedError

    def remove(self, key: str) -> None:
        raise NotImplementedError

    def victim(self, exclude: AbstractSet[str] = _NO_EXCLUDE) -> str:
        """Key to evict next (entry stays registered until remove()).

        Keys in *exclude* (pinned entries) are never nominated; raises
        :class:`CacheError` when no evictable entry remains.
        """
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    """Evict the least recently used entry."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def insert(self, key: str, size: int, cost: float) -> None:
        self._order[key] = None

    def access(self, key: str) -> None:
        self._order.move_to_end(key)

    def remove(self, key: str) -> None:
        del self._order[key]

    def victim(self, exclude: AbstractSet[str] = _NO_EXCLUDE) -> str:
        for key in self._order:
            if key not in exclude:
                return key
        raise CacheError("no cache entry to evict")


class FIFOPolicy(EvictionPolicy):
    """Evict the oldest inserted entry, ignoring accesses."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def insert(self, key: str, size: int, cost: float) -> None:
        self._order[key] = None

    def access(self, key: str) -> None:
        pass

    def remove(self, key: str) -> None:
        del self._order[key]

    def victim(self, exclude: AbstractSet[str] = _NO_EXCLUDE) -> str:
        for key in self._order:
            if key not in exclude:
                return key
        raise CacheError("no cache entry to evict")


class LFUPolicy(EvictionPolicy):
    """Evict the least frequently used entry (ties: oldest)."""

    name = "lfu"

    def __init__(self) -> None:
        self._counts: "OrderedDict[str, int]" = OrderedDict()

    def insert(self, key: str, size: int, cost: float) -> None:
        self._counts[key] = 1

    def access(self, key: str) -> None:
        self._counts[key] += 1

    def remove(self, key: str) -> None:
        del self._counts[key]

    def victim(self, exclude: AbstractSet[str] = _NO_EXCLUDE) -> str:
        candidates = [k for k in self._counts if k not in exclude]
        if not candidates:
            raise CacheError("no cache entry to evict")
        return min(candidates, key=lambda k: self._counts[k])


class SizePolicy(EvictionPolicy):
    """Evict the largest entry first (frees space fastest)."""

    name = "size"

    def __init__(self) -> None:
        self._sizes: Dict[str, int] = {}

    def insert(self, key: str, size: int, cost: float) -> None:
        self._sizes[key] = size

    def access(self, key: str) -> None:
        pass

    def remove(self, key: str) -> None:
        del self._sizes[key]

    def victim(self, exclude: AbstractSet[str] = _NO_EXCLUDE) -> str:
        candidates = [k for k in self._sizes if k not in exclude]
        if not candidates:
            raise CacheError("no cache entry to evict")
        return max(candidates, key=lambda k: self._sizes[k])


class GDSPolicy(EvictionPolicy):
    """GreedyDual-Size: priority = L + refetch_cost / size.

    Retains entries that are expensive to re-stage from tape relative to
    the space they occupy.  ``L`` is the classic inflation value, set to
    the victim's priority on each eviction so long-idle entries age out.
    """

    name = "gds"

    def __init__(self) -> None:
        self._priority: Dict[str, float] = {}
        self._cost_per_byte: Dict[str, float] = {}
        self._inflation = 0.0

    def insert(self, key: str, size: int, cost: float) -> None:
        ratio = cost / max(1, size)
        self._cost_per_byte[key] = ratio
        self._priority[key] = self._inflation + ratio

    def access(self, key: str) -> None:
        self._priority[key] = self._inflation + self._cost_per_byte[key]

    def remove(self, key: str) -> None:
        self._priority.pop(key)
        self._cost_per_byte.pop(key)

    def victim(self, exclude: AbstractSet[str] = _NO_EXCLUDE) -> str:
        candidates = [k for k in self._priority if k not in exclude]
        if not candidates:
            raise CacheError("no cache entry to evict")
        victim = min(candidates, key=lambda k: self._priority[k])
        self._inflation = self._priority[victim]
        return victim


_POLICIES = {
    "lru": LRUPolicy,
    "fifo": FIFOPolicy,
    "lfu": LFUPolicy,
    "size": SizePolicy,
    "gds": GDSPolicy,
}


def make_policy(name: str) -> EvictionPolicy:
    """Instantiate an eviction policy by name."""
    try:
        return _POLICIES[name.lower()]()
    except KeyError:
        raise CacheError(
            f"unknown eviction policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None


def policy_names() -> List[str]:
    return sorted(_POLICIES)


# -- disk super-tile cache ---------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss accounting of one cache level."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bytes_inserted: int = 0
    bytes_evicted: int = 0
    #: pin()/unpin() reference-count operations (lifetime)
    pins: int = 0
    unpins: int = 0
    #: victim nominations skipped because the candidate was pinned
    pin_evictions_blocked: int = 0
    #: puts refused by the memory tile cache's admission rule
    rejections: int = 0
    #: of the insertions, fresh segments an update wrote through to the
    #: disk cache (not staged from tape), and their bytes
    written_through: int = 0
    bytes_written_through: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class _DiskEntry:
    #: segment offset of the staged run, which is *size* bytes long
    start: int
    size: int
    cost: float
    #: staged run bytes — ``memoryview`` slices of the library's
    #: immutable payloads on the zero-copy staging path
    payload: Optional[Union[bytes, memoryview]]


class DiskCache:
    """Disk-resident cache of staged super-tile segment runs: an entry is
    the one record of which byte run of a segment is staged (:meth:`run`).

    Insertion charges a disk write; hits are free at this level (the read
    itself is charged when tiles are pulled out via :meth:`read`).

    Entries can be **pinned** (reference-counted) by the staging pipeline
    while a batch is in flight: pinned entries are never nominated as
    eviction victims, so a segment staged early in a batch cannot be
    thrown out by a later insertion of the same batch before its tiles
    were ever assembled.  When space is needed and *every* resident entry
    is pinned, :class:`~repro.errors.CachePinnedError` is raised.
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: EvictionPolicy,
        profile: DiskProfile,
        clock: SimClock,
    ) -> None:
        if capacity_bytes <= 0:
            raise CacheError("disk cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.disk = DiskDevice("heaven-cache", profile, clock)
        self.clock = clock
        self._entries: Dict[str, _DiskEntry] = {}
        self._pins: Dict[str, int] = {}
        #: resident bytes, kept by insert, evict_one and invalidate
        self._used = 0
        self.stats = CacheStats()

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def pinned_bytes(self) -> int:
        """Bytes held by entries with at least one pin (unevictable)."""
        return sum(self._entries[key].size for key in self._pins)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        return list(self._entries)

    # -- pinning -------------------------------------------------------------

    def pin(self, key: str) -> None:
        """Take a reference on *key*, shielding it from eviction."""
        if key not in self._entries:
            raise CacheError(f"cannot pin absent cache entry {key!r}")
        self._pins[key] = self._pins.get(key, 0) + 1
        self.stats.pins += 1

    def unpin(self, key: str) -> None:
        """Drop one reference; the entry becomes evictable at zero."""
        count = self._pins.get(key)
        if count is None:
            raise CacheError(f"cache entry {key!r} is not pinned")
        if count <= 1:
            del self._pins[key]
        else:
            self._pins[key] = count - 1
        self.stats.unpins += 1

    def is_pinned(self, key: str) -> bool:
        return key in self._pins

    def pin_count(self, key: str) -> int:
        return self._pins.get(key, 0)

    def pinned_keys(self) -> List[str]:
        return list(self._pins)

    def run(self, key: str) -> Optional[Tuple[int, int]]:
        """``(start, length)`` of segment *key*'s staged run, or None (counts nothing)."""
        entry = self._entries.get(key)
        return None if entry is None else (entry.start, entry.size)

    def lookup(self, key: str) -> bool:
        """Probe the cache; updates policy state and hit statistics."""
        self.stats.lookups += 1
        if key in self._entries:
            self.policy.access(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(
        self,
        key: str,
        size: int,
        refetch_cost: float,
        payload: Optional[Union[bytes, memoryview]] = None,
        pins: int = 0,
        start: int = 0,
    ) -> None:
        """Add the staged run ``[start, start + size)`` of *key*, evicting until it fits.

        The entry starts with *pins* pin references, which staging carries
        over from a narrower run of the same segment it restages wider;
        ``stats.pins`` counted them when they were taken, not again here.
        """
        if key in self._entries:
            raise CacheError(f"cache entry {key!r} already present")
        if size > self.capacity_bytes:
            raise CacheError(
                f"segment of {size} B exceeds cache capacity {self.capacity_bytes} B"
            )
        while self.used_bytes + size > self.capacity_bytes:
            self.evict_one()
        self.disk.write(size, detail=f"stage {key}")
        self._entries[key] = _DiskEntry(start, size, refetch_cost, payload)
        self._used += size
        self.policy.insert(key, size, refetch_cost)
        self.stats.insertions += 1
        self.stats.bytes_inserted += size
        if pins:
            self._pins[key] = pins
        logger.debug(
            "disk cache insert %s (%d B, refetch %.2f s); used %d/%d B",
            key, size, refetch_cost, self.used_bytes, self.capacity_bytes,
        )

    def evict_one(self) -> str:
        """Evict the policy's victim, skipping pinned entries.

        Each pinned entry the policy would have chosen first counts as one
        blocked eviction (``pin_evictions_blocked``) and emits a
        zero-duration ``pin-blocked`` marker event, so span windows can see
        the pressure without any virtual time being charged.  Raises
        :class:`CachePinnedError` when every resident entry is pinned —
        the typed signal that a staging wave was oversized.
        """
        skipped: set = set()
        while True:
            try:
                victim = self.policy.victim(exclude=skipped)
            except CacheError:
                if not self._entries:
                    raise
                raise CachePinnedError(
                    f"cannot evict: all {len(self._entries)} resident entries "
                    f"({self.pinned_bytes} B) are pinned"
                ) from None
            if victim not in self._pins:
                break
            skipped.add(victim)
            self.stats.pin_evictions_blocked += 1
            self.clock.charge(0.0, "pin-blocked", "heaven-cache", detail=victim)
        entry = self._entries.pop(victim)
        self._used -= entry.size
        self.policy.remove(victim)
        self.stats.evictions += 1
        self.stats.bytes_evicted += entry.size
        logger.debug(
            "disk cache evict %s (%d B) by %s policy", victim, entry.size,
            self.policy.name,
        )
        return victim

    def resize(self, capacity_bytes: int) -> int:
        """Change the cache capacity at runtime; returns evictions made.

        Shrinking evicts (by the configured policy) until the resident
        bytes fit the new budget *before* the capacity is lowered, so the
        "used ≤ capacity" invariant never observes an intermediate
        violation.  Raises :class:`CachePinnedError` if pinned entries
        alone exceed the new capacity — a resize must not break a staging
        batch in flight.
        """
        if capacity_bytes <= 0:
            raise CacheError("disk cache capacity must be positive")
        if self.pinned_bytes > capacity_bytes:
            raise CachePinnedError(
                f"cannot shrink cache to {capacity_bytes} B: {self.pinned_bytes} "
                f"B are pinned by staging batches in flight"
            )
        evicted = 0
        while self.used_bytes > capacity_bytes:
            self.evict_one()
            evicted += 1
        self.capacity_bytes = capacity_bytes
        return evicted

    def invalidate(self, key: str) -> bool:
        """Drop an entry without counting it as an eviction (updates).

        Any pins on the entry are discarded too: invalidation is an
        explicit statement that the bytes are dead (updated or deleted).
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used -= entry.size
        self.policy.remove(key)
        self._pins.pop(key, None)
        return True

    def read(self, key: str, offset: int, length: int) -> Optional[memoryview]:
        """Read segment bytes ``[offset, offset + length)`` off the staged run (charged).

        Returns a **read-only** ``memoryview`` over the cached payload —
        no bytes are copied; decode builds ``np.frombuffer`` views directly
        on top.  The view stays valid as long as the entry's payload object
        is referenced (Python ``bytes`` are immutable, so eviction cannot
        corrupt an outstanding view — it merely drops the cache's
        reference).
        """
        entry = self._entries.get(key)
        if entry is None:
            raise CacheError(f"cache entry {key!r} not present")
        begin = offset - entry.start
        if begin < 0 or begin + length > entry.size:
            raise CacheError(
                f"range [{offset}, {offset + length}) outside staged run "
                f"[{entry.start}, {entry.start + entry.size}) of {key!r}"
            )
        self.disk.read(length, detail=f"read {key}")
        if entry.payload is None:
            return None
        return memoryview(entry.payload)[begin : begin + length].toreadonly()


# -- memory tile cache -----------------------------------------------------------------


#: Access counts of the memory tile cache halve once every this many
#: multiples of its capacity in tiles (counted in lookups).  Long enough to
#: remember a tile that comes back a few hundred tiles later — which is
#: exactly the reuse plain LRU loses — and short enough to keep the
#: remembered history at O(capacity) keys and let a hot set that went cold
#: age out.
AGING_PERIOD_CAPACITIES = 64

_TileKey = Tuple[str, int]
#: ``(cost class, access count, recency tick)`` — lower is evicted first
_Rank = Tuple[int, int, int]


@dataclass
class _CachedTile:
    cells: np.ndarray
    #: 0 for a free view over disk-cache bytes, 1 for a decoded tile
    cost_class: int
    #: logical time of the last access: the final tie-breaker
    tick: int
    #: the rank carried by this entry's one live heap item
    queued: _Rank = (0, 0, 0)


class MemoryTileCache:
    """Cost- and frequency-aware cache of decoded tiles (top of the hierarchy).

    Each tile ranks by its rebuild-cost class, then by its access count,
    then by recency:

    * **cost class** — a *free* tile (``put(..., free=True)``) is a
      zero-copy view over disk-cache bytes: an uncompressed payload or a
      stored frame.  Any other tile was *decoded* (inflated, read from a
      BLOB, regenerated from its source) and costs that work again on a
      miss, so a free tile never displaces a decoded one;
    * **access count** — :meth:`get` calls per tile, remembered across
      evictions and halved every :data:`AGING_PERIOD_CAPACITIES` ×
      capacity-in-tiles lookups.  The memory is what keeps a tile that
      returns a few hundred tiles later;
    * **recency** breaks ties among equal classes and counts.

    Eviction takes the lowest rank first (a heap with lazy re-ranking, no
    scan per eviction).  A ``put`` that could only make room by displacing
    an entry of equal or higher class and count is **refused**
    (``stats.rejections``); ``put(..., force=True)`` admits whatever the
    ranks.  Either way ``put`` returns the frozen array, so callers see no
    difference.  :meth:`peek` is the probe for planners: it counts nothing.
    A planner that skips staging because a tile is resident holds a
    :meth:`pin` on it until the tile was assembled: pinned tiles are never
    evicted.

    Cached arrays are held and handed out **read-only**: ``put`` flips the
    array's write flag off, so a caller mutating a returned array (or a
    writer mutating a payload it also cached) raises instead of silently
    corrupting every future hit.  Callers that need to modify cells must
    ``copy()`` first.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise CacheError("memory cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._entries: Dict[_TileKey, _CachedTile] = {}
        #: lookups per tile, resident or not (aged, see AGING_PERIOD_CAPACITIES)
        self._counts: Dict[_TileKey, int] = {}
        #: min-heap of ``rank + (key,)``, one live item per entry.  Ranks
        #: only rise between agings, so an item whose entry was touched
        #: since is re-pushed when it surfaces; items of dropped entries
        #: are skipped.
        self._heap: List[Tuple[int, int, int, _TileKey]] = []
        #: pin references per tile (see :meth:`pin`)
        self._pins: Dict[_TileKey, int] = {}
        self._tick = 0
        self._lookups_to_aging = AGING_PERIOD_CAPACITIES
        self._used = 0
        self.stats = CacheStats()

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, object_name: str, tile_id: int) -> Optional[np.ndarray]:
        """The cached cells of one tile, or None; counts as an access."""
        key = (object_name, tile_id)
        self.stats.lookups += 1
        self._counts[key] = self._counts.get(key, 0) + 1
        self._lookups_to_aging -= 1
        if self._lookups_to_aging <= 0:
            self._age()
        tile = self._entries.get(key)
        if tile is None:
            self.stats.misses += 1
            return None
        self._tick += 1
        tile.tick = self._tick
        self.stats.hits += 1
        return tile.cells

    def peek(self, object_name: str, tile_id: int) -> bool:
        """Presence probe that touches neither stats nor rank."""
        return (object_name, tile_id) in self._entries

    def pin(self, object_name: str, tile_id: int) -> None:
        """Take a reference that keeps a resident tile from being evicted."""
        key = (object_name, tile_id)
        if key not in self._entries:
            raise CacheError(f"cannot pin absent memory cache tile {key!r}")
        self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, object_name: str, tile_id: int) -> None:
        """Drop one :meth:`pin` reference."""
        key = (object_name, tile_id)
        count = self._pins.pop(key, 0)
        if count == 0:
            raise CacheError(f"memory cache tile {key!r} is not pinned")
        if count > 1:
            self._pins[key] = count - 1

    @property
    def pinned_tiles(self) -> int:
        """Tiles holding at least one pin reference."""
        return len(self._pins)

    def put(
        self,
        object_name: str,
        tile_id: int,
        cells: np.ndarray,
        *,
        free: bool = False,
        force: bool = False,
    ) -> np.ndarray:
        """Offer *cells* to the cache frozen; returns the read-only array.

        *free* marks a zero-copy view over disk-cache bytes (cheap to
        rebuild); *force* admits the tile whatever its rank — for tiles the
        staging pipeline relies on finding here after it released their
        disk-cache pins.

        Callers must continue with the **returned** array: when a writable
        view of a foreign buffer has to be snapshotted to freeze safely,
        the snapshot is what got cached.  Zero-copy decode hands in arrays
        that are already read-only views, which are stored as-is.  A
        previous entry of the same tile is dropped even when the new cells
        are refused, so :meth:`get` never returns superseded cells.
        """
        key = (object_name, tile_id)
        size = int(cells.nbytes)
        # Freeze the array *before* the capacity bypass: even a tile too
        # large to cache must come out immutable, or the caller would hold
        # the only writable alias of what other code treats as frozen.
        if cells.flags.writeable and (
            cells.flags.owndata or cells.base is None
        ):
            cells.setflags(write=False)
        elif cells.flags.writeable:
            # A writable view of someone else's buffer must not be frozen
            # in place (the base stays writable anyway); snapshot it.
            cells = cells.copy()
            cells.setflags(write=False)
        stale = self._entries.pop(key, None)
        if stale is not None:
            self._used -= int(stale.cells.nbytes)
        if size > self.capacity_bytes:
            return cells  # larger than the whole cache: bypass (still frozen)
        self._tick += 1
        tile = _CachedTile(cells, 0 if free else 1, self._tick)
        rank = self._rank(key, tile)
        if not self._make_room(size, None if force else rank[:2]):
            self.stats.rejections += 1
            return cells
        tile.queued = rank
        heapq.heappush(self._heap, rank + (key,))
        self._entries[key] = tile
        self._used += size
        self.stats.insertions += 1
        self.stats.bytes_inserted += size
        if len(self._heap) > 2 * len(self._entries) + 64:
            self._rebuild_heap()  # shed items of replaced entries
        return cells

    def invalidate_object(self, object_name: str) -> int:
        """Drop every tile of one object and its access history (on
        update/delete); returns the number of tiles dropped."""
        victims = [k for k in self._entries if k[0] == object_name]
        for key in victims:
            self._used -= int(self._entries.pop(key).cells.nbytes)
        self._counts = {
            k: c for k, c in self._counts.items() if k[0] != object_name
        }
        if victims:
            self._rebuild_heap()
        return len(victims)

    # -- policy internals ------------------------------------------------------------

    def _rank(self, key: _TileKey, tile: _CachedTile) -> _Rank:
        return (tile.cost_class, self._counts.get(key, 0), tile.tick)

    def _make_room(self, size: int, floor: Optional[Tuple[int, int]]) -> bool:
        """Evict lowest-ranked entries until *size* more bytes fit.

        Pinned entries are passed over.  Nothing is evicted, and False is
        returned, when the unpinned entries cannot free enough or — given a
        *floor* (the newcomer's cost class and count) — a needed victim
        ranks at or above it.
        """
        needed = self._used + size - self.capacity_bytes
        victims: List[Tuple[int, int, int, _TileKey]] = []
        skipped: List[Tuple[int, int, int, _TileKey]] = []
        freed = 0
        while freed < needed:
            item = self._pop_lowest()
            if item is None or (floor is not None and item[:2] >= floor):
                for kept in victims + skipped + ([item] if item else []):
                    heapq.heappush(self._heap, kept)
                return False
            if item[3] in self._pins:
                skipped.append(item)
                continue
            victims.append(item)
            freed += int(self._entries[item[3]].cells.nbytes)
        for kept in skipped:
            heapq.heappush(self._heap, kept)
        for item in victims:
            evicted = int(self._entries.pop(item[3]).cells.nbytes)
            self._used -= evicted
            self.stats.evictions += 1
            self.stats.bytes_evicted += evicted
        return True

    def _pop_lowest(self) -> Optional[Tuple[int, int, int, _TileKey]]:
        """Pop the live heap item of the lowest-ranked resident entry."""
        while self._heap:
            item = heapq.heappop(self._heap)
            key = item[3]
            tile = self._entries.get(key)
            if tile is None or tile.queued != item[:3]:
                continue  # item of a dropped or replaced entry
            rank = self._rank(key, tile)
            if rank != tile.queued:
                tile.queued = rank  # touched since it was queued
                heapq.heappush(self._heap, rank + (key,))
                continue
            return item
        return None

    def _age(self) -> None:
        """Halve every access count, forget the zeros, re-rank the heap."""
        self._counts = {k: c >> 1 for k, c in self._counts.items() if c > 1}
        capacity_tiles = (
            self.capacity_bytes * len(self._entries) // self._used
            if self._used
            else 1
        )
        self._lookups_to_aging = AGING_PERIOD_CAPACITIES * max(1, capacity_tiles)
        self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        heap = []
        for key, tile in self._entries.items():
            tile.queued = self._rank(key, tile)
            heap.append(tile.queued + (key,))
        heapq.heapify(heap)
        self._heap = heap
