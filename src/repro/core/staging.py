"""Staging: the one pass that moves super-tile runs from tape into the caches.

The paper sweeps the tape requests "of one or many queries" per medium
(Kapitel 3.4.3), lands super-tiles in a disk cache and reads tiles memory
→ disk cache → tape (Kapitel 3.6).  This module owns that protocol: needs
and their fusion, the pass (plan, waves, landing, draining, salvage), the
pins and their hand-over, and the tile resolver, whose one fallback for a
tile with no staged run is a direct tape read that takes no pin.  A
segment's staged run is recorded only in its disk-cache entry
(:meth:`~repro.core.cache.DiskCache.run`).  Every
function works on the :class:`~repro.core.heaven.Heaven` passed in as
``heaven``, which owns the state; admission
(:class:`~repro.core.admission.AdmissionController`) decides which demands
share a pass.  ``collect_needs``, ``plan_requests`` and
``execute_staging`` run through their ``Heaven`` delegates, which the e2e
benchmark's layer table (``benchmarks/e2e_layers/tracing.py``) times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..arrays.mdd import MDD
from ..arrays.tile import Tile
from ..errors import CacheError, HeavenError
from .cache import DiskCache, MemoryTileCache
from .scheduler import ParallelExecutor, TapeRequest
from .super_tile import SuperTile

if TYPE_CHECKING:
    from .heaven import Heaven


@dataclass
class StagingTicket:
    """Pins held on behalf of one staging batch until assembly finished.

    :func:`stage_sweep` pins every segment a sweep needs — cache hits at
    planning time, fresh insertions at staging time — in a ticket, together
    with memory-cache pins on the tiles it drained or salvaged there.  An
    admission query owns one ticket from enqueue to assembly: it pins the
    resident tiles the query skipped staging for, and each sweep that
    serves the query hands its pins over to it (:meth:`hold`) before the
    sweep's own ticket is released.  The query releases its ticket once its
    tiles were assembled; until then no insertion can evict those bytes.
    ``release`` is idempotent.
    """

    cache: DiskCache
    memory: MemoryTileCache
    #: tape requests the batch planned, in plan order (prefetch included)
    requests: List[TapeRequest] = field(default_factory=list)
    #: super-tile runs streamed from tape for this batch
    staged: int = 0
    #: bytes those runs moved off tape
    bytes_from_tape: int = 0
    #: pin references taken over the batch's lifetime (incl. released waves)
    pins: int = 0
    #: capacity-sized admission waves the batch was split into
    waves: int = 0
    #: segment keys still holding a pin reference
    pinned: List[str] = field(default_factory=list)
    #: ``(object, tile)`` keys pinned in the memory tile cache
    tile_pins: List[Tuple[str, int]] = field(default_factory=list)

    def hold(self, key: str) -> None:
        """Take one more pin reference on cached segment *key*."""
        self.cache.pin(key)
        self.pinned.append(key)
        self.pins += 1

    def release(self) -> None:
        """Drop every pin still held by this ticket."""
        tiles, self.tile_pins = self.tile_pins, []
        for key in tiles:
            self.memory.unpin(*key)
        held, self.pinned = self.pinned, []
        for key in held:
            try:
                self.cache.unpin(key)
            except CacheError:
                # The entry was invalidated (update/delete) while in
                # flight; its pin references died with it.
                pass


@dataclass
class _SegmentNeed:
    """Merged staging demand on one tape segment across a whole batch."""

    super_tile: SuperTile
    mdd: MDD
    #: every tile of the batch that needs this segment (deduplicated)
    tile_ids: List[int] = field(default_factory=list)
    #: byte run to stage: the run the tiles need when collected, widened
    #: by planning to the covering cached run (hits) or the restaged union
    run: Tuple[int, int] = (0, 0)
    #: opportunistic sequential prefetch: never pinned, droppable
    prefetch: bool = False
    #: admission queries demanding this segment (sorted); their ids are
    #: stamped on its tape request for byte attribution
    query_ids: Tuple[int, ...] = ()
    #: pin references planning found on the cached run it dropped to
    #: restage this need's wider run: carried onto the new entry
    held: int = 0


#: per demanded segment, each demanding query's ticket and own need
Holders = Dict[str, List[Tuple[StagingTicket, _SegmentNeed]]]


def collect_needs(
    heaven: Heaven,
    pairs: Sequence[Tuple[MDD, Sequence[int]]],
    tile_pins: List[Tuple[str, int]],
) -> Dict[str, _SegmentNeed]:
    """Merge the needed tiles of a query per tape segment.

    Merging *before* planning (instead of first-request-wins) is what
    turns a shared super-tile into one covering run even when two of the
    query's units need disjoint tiles of it.  Each returned need carries
    the byte run its tiles need (:func:`_required_run`, computed here once).

    The memory tile cache short-circuits staging only at segment
    granularity: a segment is skipped when *every* needed tile is already
    decoded in memory.  A partially-cached segment keeps all its needed
    tiles in the merged run — the memory cache is volatile (an eviction
    mid-assemble would narrow-miss the staged run and defeat the pin
    guarantee), the pinned disk run is not.  The tiles of a skipped segment
    are pinned in the memory cache instead and their keys appended to
    *tile_pins*; the caller unpins them once it assembled them.  The probe
    is a ``peek``: planning is not an access, so it neither counts in the
    memory cache's statistics nor raises a tile's rank.
    """
    needs: Dict[str, _SegmentNeed] = {}
    stageable: set = set()
    for mdd, tile_ids in pairs:
        entry = heaven._archived.get(mdd.name)
        if entry is None or entry.disk_copy:
            continue  # disk-resident (or dual-resident): nothing to stage
        for tile_id in tile_ids:
            super_tile = entry.super_tile_of(tile_id)
            assert super_tile.segment_name is not None
            key = super_tile.segment_name
            need = needs.get(key)
            if need is None:
                need = needs[key] = _SegmentNeed(super_tile, mdd)
            if tile_id not in need.tile_ids:
                need.tile_ids.append(tile_id)
                if not heaven.memory_cache.peek(mdd.name, tile_id):
                    stageable.add(key)
    out: Dict[str, _SegmentNeed] = {}
    for key, need in needs.items():
        if key in stageable:
            need.run = _required_run(heaven, need.super_tile, need.tile_ids)
            out[key] = need
            continue
        for tile_id in need.tile_ids:
            _pin_resident(heaven, tile_pins, need.mdd.name, tile_id)
    return out


def fuse_needs(heaven: Heaven, holders: Holders) -> Dict[str, _SegmentNeed]:
    """One need per segment of a sweep, in key order: a segment one query
    demands keeps that query's need; several queries' needs fuse into the
    union of their tiles, the run that union requires, and all their ids."""
    fused: Dict[str, _SegmentNeed] = {}
    for key in sorted(holders):
        needs = [need for _ticket, need in holders[key]]
        need = needs[0]
        if len(needs) > 1:
            tile_ids = sorted({t for n in needs for t in n.tile_ids})
            need = _SegmentNeed(
                need.super_tile, need.mdd, tile_ids,
                run=_required_run(heaven, need.super_tile, tile_ids),
                query_ids=tuple(sorted({q for n in needs for q in n.query_ids})),
            )
        fused[key] = need
    return fused


def _pin_resident(
    heaven: Heaven, tile_pins: List[Tuple[str, int]], object_name: str, tile_id: int
) -> None:
    """Pin a tile a batch will assemble from the memory cache, recording
    the key in *tile_pins*; a no-op when the cache did not admit it."""
    if heaven.memory_cache.peek(object_name, tile_id):
        heaven.memory_cache.pin(object_name, tile_id)
        tile_pins.append((object_name, tile_id))


def stage_sweep(
    heaven: Heaven, needs: Dict[str, _SegmentNeed], holders: Holders
) -> StagingTicket:
    """Stage one admission sweep's fused *needs* in one scheduled tape pass,
    then hand its pins over to the *holders* (see :func:`_hand_over_pins`).

    This is the inter-query scheduling path (Kapitel 3.4.3): the requests
    of every query in the sweep are ordered together, so each medium is
    exchanged at most once per sweep.  Three guarantees keep the pass from
    defeating itself:

    * required byte runs are **merged per segment across the whole sweep**
      before any request is built (:func:`fuse_needs`), so two queries
      sharing a super-tile trigger exactly one tape run covering both;
    * every segment the sweep relies on is **pinned** — cache hits at
      planning time, fresh stages at insertion time — until its tiles'
      queries released their tickets, so a later insertion of the same
      sweep can never evict bytes whose tiles are still unread;
    * sweeps larger than the disk cache are admitted in capacity-sized
      **waves** (stage → materialise into the memory tile cache → unpin)
      instead of thrashing through per-tile restages.

    Returns the sweep's own ticket, released: its planned requests and its
    tallies (runs streamed, tape bytes, waves, pins).
    """
    ticket = StagingTicket(cache=heaven.disk_cache, memory=heaven.memory_cache)
    try:
        with heaven.tracer.span("heaven.stage") as stage_span:
            with heaven.tracer.span("cache.lookup"):
                ticket.requests = heaven.plan_requests(needs, ticket)
            if ticket.requests:
                heaven.execute_staging(ticket.requests, needs, ticket)
            stage_span.set(
                super_tiles=ticket.staged,
                bytes_from_tape=ticket.bytes_from_tape,
                waves=ticket.waves,
                pins=ticket.pins,
            )
        if heaven.instruments is not None and stage_span.enabled:
            heaven.instruments.observe_stage_wall(stage_span.wall_elapsed)
        _hand_over_pins(heaven, holders, ticket.tile_pins)
    finally:
        ticket.release()
    return ticket


def plan_requests(
    heaven: Heaven, needs: Dict[str, _SegmentNeed], ticket: StagingTicket
) -> List[TapeRequest]:
    """Turn merged needs into tape requests; pin covering cache hits."""
    requests: List[TapeRequest] = []
    for key, need in needs.items():
        run = need.run
        if heaven.disk_cache.lookup(key):
            cached = heaven.disk_cache.run(key)
            if _covers(cached, run):
                # Hit: pin it so later insertions of this very sweep
                # cannot evict it before its tiles are assembled.
                ticket.hold(key)
                need.run = cached
                continue
            # Cached run too small: restage the contiguous union of cached
            # and needed (never more than the segment).  Its pins belong to
            # queries still waiting to assemble from it: carry them over.
            need.held = heaven.disk_cache.pin_count(key)
            heaven.disk_cache.invalidate(key)
            start = min(cached[0], run[0])
            end = max(cached[0] + cached[1], run[0] + run[1])
            run = (start, end - start)
        need.run = run
        requests.append(_tape_request(heaven, key, need))
    if heaven.config.prefetch == "sequential":
        _add_prefetch(heaven, requests, needs)
    return requests


def _tape_request(heaven: Heaven, key: str, need: _SegmentNeed) -> TapeRequest:
    """The request streaming *need*'s run of segment *key*, stamped with the
    ids of the queries demanding it (none for a prefetch)."""
    medium_id, segment = heaven.library.segment(key)
    return TapeRequest(
        key=key,
        medium_id=medium_id,
        offset=segment.offset + need.run[0],
        length=need.run[1],
        query_ids=need.query_ids,
    )


def execute_staging(
    heaven: Heaven,
    requests: Sequence[TapeRequest],
    needs: Dict[str, _SegmentNeed],
    ticket: StagingTicket,
) -> None:
    """Order planned *requests* and stream them in capacity-sized waves.

    The execution half of the staging pass: scheduler ordering (elevator
    sweeps per medium) followed by pinned wave admission.  Requests of
    needs fused across queries carry the demanding query ids, so the
    admission layer splits their bytes afterwards with
    :func:`~repro.core.scheduler.attribute_request_bytes`.

    Waves cut the ordered request stream greedily at the cache's free
    budget (capacity minus currently pinned bytes), preserving the
    scheduler's order so the mount-once property of the sweep survives.
    Every non-final wave materialises its tiles into the memory tile cache
    and unpins before the next wave claims the space; the final wave's pins
    ride on the ticket until they are handed over.
    """
    with heaven.tracer.span("scheduler.plan", requests=len(requests)):
        ordered = heaven.scheduler.order(list(requests), heaven.library)
    capacity = heaven.disk_cache.capacity_bytes
    index, total = 0, len(ordered)
    with heaven.tracer.span("library.stage", requests=total):
        while index < total:
            budget = max(0, capacity - heaven.disk_cache.pinned_bytes)
            wave: List[TapeRequest] = []
            wave_bytes = 0
            while index < total:
                request = ordered[index]
                if wave and wave_bytes + request.length > budget:
                    break
                wave.append(request)
                wave_bytes += request.length
                index += 1
            ticket.waves += 1
            heaven.staging_waves_admitted += 1
            staged_keys = _stage_wave(heaven, wave, needs, ticket)
            if index < total:
                _drain_wave(heaven, staged_keys, needs, ticket)
    ticket.staged = total
    heaven.segments_staged += total


def _stage_wave(
    heaven: Heaven,
    wave: Sequence[TapeRequest],
    needs: Dict[str, _SegmentNeed],
    ticket: StagingTicket,
) -> List[str]:
    """Stream one wave of requests from tape into the disk cache.

    A library with several drives runs the wave through the
    :class:`~repro.core.scheduler.ParallelExecutor`, the one runner of a
    tape batch: the serial loop's mounts, seeks and reads in the wave's
    order (already the scheduler's), each drive on its own virtual
    timeline, the robot arm serialised across them, and landing
    (:func:`_land_staged`) in request order on the assembly timeline while
    the drives stream on.  With one drive the wave streams serially, each
    run landed before the next is read: the executor would overlap landing
    with streaming there, which changes the timing the single-drive
    experiments measure.
    """
    staged_keys: List[str] = []
    if len(heaven.library.drives) > 1:
        report = ParallelExecutor(heaven.library, tracer=heaven.tracer).execute(
            wave,
            on_staged=lambda request: _land_staged(
                heaven, request, needs, ticket, staged_keys
            ),
        )
        heaven.parallel_batches += 1
        heaven.parallel_makespan_seconds += report.makespan_seconds
        heaven.parallel_device_seconds += report.serial_device_seconds
        return staged_keys
    for request in wave:
        heaven.library.read_extent(request.medium_id, request.offset, request.length)
        _land_staged(heaven, request, needs, ticket, staged_keys)
    return staged_keys


def _land_staged(
    heaven: Heaven,
    request: TapeRequest,
    needs: Dict[str, _SegmentNeed],
    ticket: StagingTicket,
    staged_keys: List[str],
) -> None:
    """Land one streamed request in the cache hierarchy.

    The post-tape half of staging: the HSM double hop, the disk-cache
    insertion (pinned) and the bookkeeping.  Serial staging calls it right
    after ``read_extent``; the parallel executor calls it on the assembly
    timeline, so the disk/HSM charges below overlap the drive streaming
    its next run.
    """
    need = needs[request.key]
    run_start, run_length = need.run
    _hsm_hop(heaven, run_length, request.key)
    payload = _segment_payload(heaven, request.key, run_start, run_length)
    refetch = _refetch_cost(heaven, run_length)
    ticket.bytes_from_tape += request.length
    try:
        heaven.disk_cache.insert(
            request.key, run_length, refetch, payload=payload, pins=need.held,
            start=run_start,
        )
    except CacheError:
        # The cache cannot take this run — every byte is pinned by
        # in-flight queries, or the run alone exceeds the whole capacity.
        # A prefetch is opportunistic and simply dropped.  A demanded run is
        # already streamed, so its tiles are decoded straight into the
        # memory cache instead of dropping the bytes.  Carried pins go with
        # the old entry; their holders' tiles restage if evicted.
        if not need.prefetch:
            _materialize_from_run(heaven, need, payload, ticket)
        return
    if not need.prefetch:  # a prefetch is never pinned
        ticket.hold(request.key)
        staged_keys.append(request.key)


def _hsm_hop(heaven: Heaven, nbytes: int, key: str) -> None:
    """HSM attachment's double hop: the HSM lands a file in its own staging
    area before HEAVEN can copy it into the cache hierarchy."""
    if heaven.hsm_staging is not None:
        heaven.hsm_staging.write(nbytes, detail=f"hsm stage {key}")
        heaven.hsm_staging.read(nbytes, detail=f"hsm serve {key}")


def _materialize_from_run(
    heaven: Heaven,
    need: _SegmentNeed,
    payload: Optional[Union[bytes, memoryview]],
    ticket: StagingTicket,
) -> None:
    """Decode a streamed run's tiles directly into the memory cache.

    Degraded path for a fully-pinned disk cache: the tape bytes were paid
    for, so the tiles are salvaged even though the segment cannot be
    cached on disk — force-admitted and pinned on *ticket*, as the memory
    cache is now their only copy above tape.
    """
    run_start, _run_length = need.run
    for tile_id in need.tile_ids:
        tile = need.mdd.tiles[tile_id]
        offset, length = need.super_tile.tile_extents[tile_id]
        raw = None
        if payload is not None:
            raw = payload[offset - run_start : offset - run_start + length]
        _decode_and_cache(heaven, need.mdd, tile, raw, force=True)
        _pin_resident(heaven, ticket.tile_pins, need.mdd.name, tile_id)


def _drain_wave(
    heaven: Heaven,
    staged_keys: Sequence[str],
    needs: Dict[str, _SegmentNeed],
    ticket: StagingTicket,
) -> None:
    """Materialise a finished wave's tiles, then release its pins.

    The tiles are force-admitted to the memory cache and pinned there on
    *ticket*: once the disk pins are gone, that is where the sweep's
    queries will look for them.
    """
    with heaven.tracer.span("heaven.drain", segments=len(staged_keys)):
        for key in staged_keys:
            need = needs[key]
            for tile_id in need.tile_ids:
                resolve_tile(heaven, need.mdd, need.mdd.tiles[tile_id], force=True)
                _pin_resident(heaven, ticket.tile_pins, need.mdd.name, tile_id)
            try:
                heaven.disk_cache.unpin(key)
            except CacheError:
                pass  # invalidated while draining (shouldn't happen)
            if key in ticket.pinned:
                ticket.pinned.remove(key)


def _hand_over_pins(
    heaven: Heaven, holders: Holders, drained: Sequence[Tuple[str, int]]
) -> None:
    """Pin what the sweep staged onto each demanding query's ticket.

    One disk-cache pin per demanding query per fused segment still in the
    disk cache, and one memory-cache pin per demanding query per tile in
    *drained* whose segment left the disk cache: the tiles non-final waves
    drained (or a fully-pinned disk cache salvaged) into the memory tile
    cache.  The sweep's own ticket pins those only until the sweep ends,
    and a query still waiting on another sweep would otherwise find them
    evicted and restage.  A drained segment still on disk is held instead,
    which leaves the memory cache room for later sweeps.
    Sequential-prefetch segments are in no demand, so nobody holds them.
    """
    held = {key for key in holders if key in heaven.disk_cache}
    for key in sorted(held):
        for ticket, _need in holders[key]:
            ticket.hold(key)
    if not drained:
        return
    demanders: Dict[Tuple[str, int], List[StagingTicket]] = {}
    for key, pairs in holders.items():
        if key in held:
            continue
        for ticket, need in pairs:
            for tile_id in need.tile_ids:
                demanders.setdefault((need.mdd.name, tile_id), []).append(ticket)
    for tile_key in drained:
        for ticket in demanders.get(tile_key, ()):
            heaven.memory_cache.pin(*tile_key)
            ticket.tile_pins.append(tile_key)


def _required_run(
    heaven: Heaven, super_tile: SuperTile, needed: Sequence[int]
) -> Tuple[int, int]:
    if heaven.hsm_staging is not None:
        # HSM attachment: the file is the smallest unit of access.
        return (0, super_tile.size_bytes)
    if heaven.config.partial_super_tile_reads and needed:
        return super_tile.run_covering(list(needed))
    return (0, super_tile.size_bytes)


def _covers(cached: Tuple[int, int], run: Tuple[int, int]) -> bool:
    return cached[0] <= run[0] and run[0] + run[1] <= cached[0] + cached[1]


def _add_prefetch(
    heaven: Heaven, requests: List[TapeRequest], needs: Dict[str, _SegmentNeed]
) -> None:
    """Sequential prefetch: also stage the next super-tile in cluster
    order when it lives on a medium the sweep already mounts."""
    media_in_batch = {r.medium_id for r in requests}
    extra: List[TapeRequest] = []
    for request in list(requests):
        need = needs[request.key]
        entry = heaven._archived[need.mdd.name]
        next_index = need.super_tile.index + 1
        if next_index >= len(entry.super_tiles):
            continue
        neighbour = entry.super_tiles[next_index]
        key = neighbour.segment_name
        if key is None or key in needs:
            continue
        if heaven.library.locate(key) not in media_in_batch:
            continue
        if key in heaven.disk_cache:
            continue
        needs[key] = _SegmentNeed(
            neighbour, need.mdd, run=(0, neighbour.size_bytes), prefetch=True
        )
        extra.append(_tape_request(heaven, key, needs[key]))
    requests.extend(extra)


def _segment_payload(
    heaven: Heaven, key: str, run_start: int, run_length: int
) -> Optional[memoryview]:
    """Read-only view of a segment run's bytes (zero-copy).

    The library keeps segment payloads as immutable ``bytes``; a sliced
    view of them is what lands in the disk cache, so staging a run never
    duplicates the streamed bytes in host memory.
    """
    medium_id = heaven.library.locate(key)
    payload = heaven.library.medium(medium_id).payload(key)
    if payload is None:
        return None
    return memoryview(payload)[run_start : run_start + run_length].toreadonly()


def _refetch_cost(heaven: Heaven, nbytes: int) -> float:
    """Estimated tape cost to re-stage *nbytes* (feeds the GDS policy)."""
    profile = heaven.config.tape_profile
    return (
        profile.full_exchange_time()
        + profile.avg_seek_time_s / 2.0
        + profile.transfer_time(nbytes)
    )


def resolve_tile(
    heaven: Heaven, mdd: MDD, tile: Tile, force: bool = False
) -> np.ndarray:
    """Tile resolver installed on archived objects.

    Memory cache → (disk copy, when dual-resident) → staged run in the disk
    cache → tape (:func:`_restage`).  A tile it had to build is offered to
    the memory cache (*force* admits it unconditionally).
    """
    cached = heaven.memory_cache.get(mdd.name, tile.tile_id)
    if cached is not None:
        return cached
    entry = heaven._archived.get(mdd.name)
    if entry is None:
        raise HeavenError(f"resolver called for unarchived object {mdd.name!r}")
    if entry.disk_copy:
        # Dual residence (keep_disk_copy=True): the faster copy wins, read
        # by the storage manager's own BLOB resolver.
        assert mdd.oid is not None
        cells = heaven.storage._make_resolver(mdd.oid)(mdd, tile)
        return _cache_tile(heaven, mdd, tile, cells, free=False, force=force)
    super_tile = entry.super_tile_of(tile.tile_id)
    key = super_tile.segment_name
    assert key is not None
    extent = super_tile.tile_extents[tile.tile_id]
    run = heaven.disk_cache.run(key)
    if run is not None and _covers(run, extent):
        raw = heaven.disk_cache.read(key, *extent)
    else:
        raw = _restage(heaven, super_tile, tile)
    return _decode_and_cache(heaven, mdd, tile, raw, force)


def _restage(
    heaven: Heaven, super_tile: SuperTile, tile: Tile
) -> Optional[memoryview]:
    """The one fallback of a tile whose staged run is gone (or too narrow):
    the thrash class the pinned pass prevents, or a read outside any
    admission query.  It is counted, leaves a zero-duration ``restage``
    marker, and reads :func:`_required_run` of the tile alone straight off
    tape (the whole segment under HSM attachment, plus its double hop).
    Nothing lands in the disk cache and no pin is taken; the bytes fall in
    the assembling query's event window, so its report carries them.
    """
    key = super_tile.segment_name
    assert key is not None
    heaven.restages += 1
    heaven.clock.charge(0.0, "restage", "heaven-cache", detail=f"{key}:{tile.tile_id}")
    run_start, run_length = _required_run(heaven, super_tile, [tile.tile_id])
    medium_id, segment = heaven.library.segment(key)
    heaven.library.read_extent(medium_id, segment.offset + run_start, run_length)
    _hsm_hop(heaven, run_length, key)
    tile_offset, tile_length = super_tile.tile_extents[tile.tile_id]
    return _segment_payload(heaven, key, tile_offset, tile_length)


def _decode_and_cache(
    heaven: Heaven,
    mdd: MDD,
    tile: Tile,
    raw: Optional[Union[bytes, memoryview]],
    force: bool,
) -> np.ndarray:
    """Decode *raw* (see :func:`_decode_tile`) and offer the cells to the
    memory cache — as a free tile when they are a view over *raw*."""
    cells = _decode_tile(heaven, mdd, tile, raw)
    free = raw is not None and heaven.codec.decodes_to_view(raw)
    return _cache_tile(heaven, mdd, tile, cells, free=free, force=force)


def _cache_tile(
    heaven: Heaven, mdd: MDD, tile: Tile, cells: np.ndarray, *, free: bool, force: bool
) -> np.ndarray:
    """Offer *cells* to the memory tile cache; return the frozen array.

    The cache owns freezing and admission (see
    :meth:`MemoryTileCache.put`); when it had to snapshot a writable view
    to freeze safely, the snapshot — not the caller's writable alias — is
    what resolver callers must see, and the copied bytes are charged to the
    zero-copy counter.
    """
    stored = heaven.memory_cache.put(mdd.name, tile.tile_id, cells, free=free, force=force)
    if stored is not cells:
        heaven.assembly_bytes_copied += int(stored.nbytes)
    return stored


def _decode_tile(
    heaven: Heaven,
    mdd: MDD,
    tile: Tile,
    raw: Optional[Union[bytes, memoryview]],
) -> np.ndarray:
    """Decode one tile's staged frame (or regenerate from its source).

    Zero-copy: the returned array is a **read-only view** over the
    cache-owned bytes (uncompressed and stored frames) or over the codec's
    freshly-decompressed buffer — immutable or owned by this decode, so no
    defensive copy.  Every codec checks the frame's size.
    """
    if raw is not None:
        view = heaven.codec.decompress_view(raw, tile.size_bytes)
        return np.frombuffer(view, dtype=mdd.cell_type.dtype).reshape(tile.domain.shape)
    if mdd.source is not None:
        return mdd.source.region(tile.domain, mdd.cell_type)
    raise HeavenError(
        f"tile {tile.tile_id} of {mdd.name!r}: payload not retained and "
        "no source to regenerate from"
    )


def assert_quiescent(heaven: Heaven) -> None:
    """Raise :class:`HeavenError` unless *heaven* is at rest.

    Quiescence means no operation is in flight: every staging pin (disk
    segment or memory tile) has been released (a leaked pin would silently
    shrink the evictable cache forever), no parallel-staging timeline is
    still active on the clock, neither cache tier holds more bytes than
    its capacity, its running byte total equals the sum of its runs, every
    disk-cache key names a live library segment (an entry that outlived
    its segment would serve dead bytes), and every medium's layout is sound
    (:meth:`~repro.tertiary.library.TapeLibrary.layout_fault`).  The
    simulation harness checks this between operations; it is also a useful
    sanity probe after any synchronous API call.
    """
    pinned = heaven.disk_cache.pinned_keys()
    if pinned:
        raise HeavenError(
            f"not quiescent: {len(pinned)} disk-cache key(s) still "
            f"pinned: {pinned[:5]}"
        )
    orphans = [key for key in heaven.disk_cache.keys() if not heaven.library.has_segment(key)]
    if orphans:
        raise HeavenError(
            f"not quiescent: {len(orphans)} disk-cache key(s) name no live "
            f"library segment: {orphans[:5]}"
        )
    if heaven.memory_cache.pinned_tiles:
        raise HeavenError(
            f"not quiescent: {heaven.memory_cache.pinned_tiles} memory-cache "
            "tile(s) still pinned"
        )
    if heaven.clock.active_timeline is not None:
        raise HeavenError(
            "not quiescent: a parallel-staging timeline is still "
            "active on the clock"
        )
    cache = heaven.disk_cache
    resident = sum(cache.run(key)[1] for key in cache.keys())
    if cache.used_bytes != resident:
        raise HeavenError(
            f"not quiescent: disk cache counts {cache.used_bytes} bytes "
            f"but its runs hold {resident}"
        )
    fault = heaven.library.layout_fault()
    if fault is not None:
        raise HeavenError(f"not quiescent: {fault}")
    if heaven.disk_cache.used_bytes > heaven.disk_cache.capacity_bytes:
        raise HeavenError(
            f"not quiescent: disk cache holds {heaven.disk_cache.used_bytes} "
            f"bytes > capacity {heaven.disk_cache.capacity_bytes}"
        )
    if heaven.memory_cache.used_bytes > heaven.memory_cache.capacity_bytes:
        raise HeavenError(
            f"not quiescent: memory cache holds "
            f"{heaven.memory_cache.used_bytes} bytes > capacity "
            f"{heaven.memory_cache.capacity_bytes}"
        )
