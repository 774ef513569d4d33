"""The write side of the archive lifecycle (Kapitel 3.5): update, reimport, delete.

An update is one write order: stage, patch, append fresh segments, switch
the catalog, retire the old segments after COMMIT.  This module owns it,
as :mod:`.staging` owns the read side: ``update`` and its transaction
(``_rewrite_segments``), the one ``_detach`` of ``reimport`` and
``delete``, and ``frames``, the frame builder of ``Heaven.archive`` and
``update``.  Every function works on the ``heaven`` passed in; the
``Heaven`` methods of the same names delegate here.
"""

from __future__ import annotations

import re
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.storage import _cell_bytes
from ..errors import CacheError
from . import staging
from .compression import Buffer
from .export import join_frames
from .super_tile import SuperTile

if TYPE_CHECKING:
    from .heaven import ArchivedObject, Heaven

#: trailing version suffix of re-exported segment names (``…/st3.v7``)
_VERSION_RE = re.compile(r"\.v\d+$")


def frames(
    heaven: Heaven, mdd: MDD, raws: Dict[int, Optional[bytes]], kept: Dict[int, Optional[Buffer]]
) -> Tuple[Dict[int, int], Dict[int, Optional[Buffer]]]:
    """On-tape sizes and frames of tiles: the one frame builder of
    ``Heaven.archive`` and :func:`update`.

    Tiles in *raws* are encoded from their cells' bytes, all of them in
    one :meth:`Codec.compress_all` batch; tiles in *kept* keep the frame
    they already have on tape, sliced out of the old segment.  A tile
    whose source bytes are None (a size-only BLOB or segment) has no
    frame and is accounted at :meth:`Codec.estimated_size`.
    """
    built: Dict[int, Optional[Buffer]] = {**kept, **dict.fromkeys(raws)}
    encode = [tile_id for tile_id, raw in raws.items() if raw is not None]
    itemsize = mdd.cell_type.dtype.itemsize
    built.update(zip(encode, heaven.codec.compress_all([raws[t] for t in encode], itemsize)))
    sizes = {
        tile_id: heaven.codec.estimated_size(mdd.tiles[tile_id].size_bytes)
        if frame is None
        else len(frame)
        for tile_id, frame in built.items()
    }
    return sizes, built


def update(
    heaven: Heaven, collection_name: str, object_name: str, region: MInterval, cells: np.ndarray
) -> int:
    """Update a region of an object; returns the re-exported super-tile count.

    A disk-resident object is patched in its tile BLOBs.  An archived
    object's affected super-tiles are staged, patched in memory and
    re-exported as fresh segments (tape is append-only; old segments
    become dead space until their medium empties and the library erases
    it) by :func:`_rewrite_segments`, on the medium the
    staging kept mounted, and kept staged in the disk cache
    (:func:`_write_through`).  A failure anywhere
    leaves the object readable with its old bytes: in-memory payloads are
    dropped either way, and the caches, aggregates and pyramids refresh
    only after every new segment is on tape.
    """
    mdd = heaven.storage.collection(collection_name).get(object_name)
    # Reject a bad write before anything is staged.
    cells = mdd.checked_write(region, cells)
    affected = {t.tile_id for t in mdd.tiles_for(region)}
    entry = heaven._archived.get(object_name)
    if entry is None:
        mdd.write(region, cells)
        # Persist the change: a later archive assembles segments from
        # the tile BLOBs, not the in-memory payloads, so an update
        # left only in memory would be silently lost at export time.
        heaven.storage.rewrite_tiles(mdd, sorted(affected), attrgetter("payload"))
        return 0
    affected_sts = {entry.super_tile_of(t).index for t in affected}
    # Stage and materialise every tile of the affected super-tiles.
    tiles_to_load = [
        tile_id
        for st_index in affected_sts
        for tile_id in entry.super_tiles[st_index].tile_ids
    ]

    def load() -> None:
        for tile_id in tiles_to_load:
            tile = mdd.tiles[tile_id]
            # The resolver's arrays are frozen; set_payload snapshots
            # non-writable input itself, so no defensive copy here.
            tile.set_payload(staging.resolve_tile(heaven, mdd, tile))

    # Stage around the medium the rewrite will append to, and write there:
    # the staging does not stow it only for the write to fetch it straight
    # back, and the write goes to the medium the staging left alone.
    sizes = [entry.super_tiles[i].size_bytes for i in affected_sts]
    library = heaven.library
    append_to = library.append_target(sum(sizes)) or library.append_target(max(sizes))
    try:
        with library.keep_mounted(append_to):
            heaven._query_unit(mdd, tiles_to_load, load, str(region))
            mdd.write(region, cells)
            _rewrite_segments(
                heaven, entry, [entry.super_tiles[i] for i in sorted(affected_sts)], affected
            )
        if entry.disk_copy:
            # Dual residence: refresh the disk copy's tile BLOBs too.
            heaven.storage.rewrite_tiles(mdd, tiles_to_load, attrgetter("payload"))
        # Pyramid levels over the old cells are stale now.
        heaven.pyramids.drop_object(object_name)
        # Refresh caches and aggregates.
        for tile_id in tiles_to_load:
            heaven.memory_cache.put(mdd.name, tile_id, mdd.tiles[tile_id].payload)
            if heaven.config.precompute_aggregates and mdd.cell_type.dtype.fields is None:
                heaven.precomputed.refresh_tile(mdd, tile_id)
    finally:
        for tile_id in tiles_to_load:
            mdd.tiles[tile_id].drop_payload()
    return len(affected_sts)


def _rewrite_segments(
    heaven: Heaven, entry: ArchivedObject, super_tiles: List[SuperTile], dirty: Set[int]
) -> None:
    """Re-export *super_tiles* of *entry* from their patched payloads.

    Only the *dirty* tiles are encoded; every clean tile's frame is
    sliced verbatim out of its old segment with the old extents (an
    uncharged peek: the update paid for that tape read when it staged
    the super-tile).  A size-only old segment gives a size-only new one.
    The new segments are written, and the catalog switched to them,
    inside one exporter journal transaction; the old segments are
    retired only after its COMMIT, and then each new segment is written
    through to the disk cache.  A failed write rolls the journal
    back and changes nothing else; a crash before COMMIT leaves new
    segments that :func:`~repro.core.export.recover_incomplete_exports`
    removes.
    """
    mdd = entry.mdd
    raws: Dict[int, Optional[bytes]] = {}
    kept: Dict[int, Optional[Buffer]] = {}
    for super_tile in super_tiles:
        key = super_tile.segment_name
        assert key is not None
        old = heaven.library.medium(heaven.library.locate(key)).payload(key)
        for tile_id in super_tile.tile_ids:
            if old is None:
                kept[tile_id] = None
            elif tile_id in dirty:
                raws[tile_id] = _cell_bytes(mdd, mdd.tiles[tile_id].payload)
            else:
                offset, length = super_tile.tile_extents[tile_id]
                kept[tile_id] = memoryview(old)[offset : offset + length]
    sizes, built = frames(heaven, mdd, raws, kept)
    version = entry.version + 1
    old_keys = [super_tile.segment_name for super_tile in super_tiles]
    with heaven.exporter.journal(mdd.name) as write:
        moved = []
        for super_tile, old_key in zip(super_tiles, old_keys):
            # Version the name off the object's monotonic update counter:
            # stable length, collision-free even with zero elapsed
            # virtual time between exports.
            new_key = f"{_VERSION_RE.sub('', old_key)}.v{version}"
            write(
                new_key,
                sum(sizes[t] for t in super_tile.tile_ids),
                join_frames(built, super_tile.tile_ids),
            )
            moved.append((super_tile, new_key))
        for super_tile, new_key in moved:
            super_tile.size_bytes = sum(sizes[t] for t in super_tile.tile_ids)
            super_tile.assign_extents(sizes)
            super_tile.segment_name = new_key
        entry.version = version
    for old_key in old_keys:
        _retire_segment(heaven, old_key)
    if not entry.disk_copy:  # a dual-resident object never reads the disk cache
        for super_tile, new_key in moved:
            _write_through(heaven, new_key, super_tile.size_bytes)


def _write_through(heaven: Heaven, key: str, size: int) -> None:
    """Keep freshly written segment *key* staged: its whole run goes into
    the disk cache (a zero-copy view of the library payload; the insert
    charges the disk write), so the next update or read of the super-tile
    stages nothing from tape.  A size-only segment goes in size-only, as
    staging inserts it, so the virtual clock does not depend on whether
    payloads are kept.  A segment the cache cannot take (every entry
    pinned, or larger than the cache) is skipped."""
    cache = heaven.disk_cache
    payload = staging._segment_payload(heaven, key, 0, size)
    try:
        cache.insert(key, size, staging._refetch_cost(heaven, size), payload=payload)
    except CacheError:
        return
    cache.stats.written_through += 1
    cache.stats.bytes_written_through += size


def reimport(heaven: Heaven, collection_name: str, object_name: str) -> int:
    """Bring an archived object fully back to secondary storage.

    Stages every super-tile (scheduled), rewrites the tile BLOBs, and
    detaches the object from the tape hierarchy (:func:`_detach`) — so it
    can later be re-archived (possibly with fresher access statistics).
    Returns the number of tiles re-imported.
    """
    mdd = heaven.storage.collection(collection_name).get(object_name)
    entry = heaven.archived(object_name)
    all_tiles = sorted(mdd.tiles)
    rewrite = lambda: heaven.storage.rewrite_tiles(  # noqa: E731
        mdd, all_tiles, partial(staging.resolve_tile, heaven, mdd)
    )
    heaven._query_unit(mdd, all_tiles, rewrite, str(mdd.domain))
    assert mdd.oid is not None
    _detach(heaven, entry)
    del heaven._archived[object_name]
    mdd.resolver = heaven.storage._make_resolver(mdd.oid)
    return len(all_tiles)


def delete(heaven: Heaven, collection_name: str, object_name: str) -> None:
    """Delete an object everywhere: caches, tape segments, catalogs."""
    entry = heaven._archived.pop(object_name, None)
    if entry is not None:
        _detach(heaven, entry)
        entry.mdd.resolver = None
    heaven.storage.delete_object(collection_name, object_name)


def _detach(heaven: Heaven, entry: ArchivedObject) -> None:
    """Release *entry*'s tape segments, cached runs and memory tiles, and
    drop its precomputed aggregates and pyramid levels: the one detach of
    :func:`delete` and :func:`reimport`."""
    for super_tile in entry.super_tiles:
        if super_tile.segment_name is not None:
            _retire_segment(heaven, super_tile.segment_name)
            super_tile.segment_name = None
    name = entry.mdd.name
    heaven.memory_cache.invalidate_object(name)
    heaven.precomputed.drop_object(name)
    heaven.pyramids.drop_object(name)


def _retire_segment(heaven: Heaven, key: str) -> None:
    """Drop segment *key* from the disk cache (with its staged run) and
    from tape."""
    heaven.disk_cache.invalidate(key)
    heaven.library.delete_segment(key)
