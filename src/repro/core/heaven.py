"""The HEAVEN façade: one object fusing the array DBMS with tertiary storage.

This is the system of the dissertation's title.  It owns the base DBMS, the
array storage manager, the tape library, the caches, the scheduler, access
statistics and the precomputed-results catalog, and exposes the user-facing
operations:

* ``create_collection`` / ``insert`` — classic DBMS ingestion (disk),
* ``archive`` — migrate an object to tape as clustered super-tiles
  (STAR/eSTAR + intra/inter clustering + decoupled TCT export),
* ``read`` / ``read_frame`` / ``query`` — transparent retrieval across the
  whole hierarchy (memory cache → disk cache → scheduled tape access),
* ``delete`` / ``update`` / ``reimport`` — the archive lifecycle
  (Kapitel 3.5).

Queries never mention storage: an archived object answers exactly like a
disk-resident one, only the simulated clock knows the difference.
Every staging — reads, frames, RasQL trims, condenser edges, the tile loads
of ``update`` and ``reimport`` — is one admission query (:mod:`.admission`);
only the resolver's restage fallback stages bare, inside another query.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Set
from typing import Tuple, Union

import numpy as np

from ..arrays.mdd import MDD, Collection
from ..arrays.minterval import MInterval
from ..arrays.operations import MArray
from ..arrays.query.executor import MDDRef, MutationHooks, QueryExecutor, QueryResult
from ..arrays.storage import ArrayStorage
from ..arrays.tile import Tile
from ..dbms.engine import Database
from ..errors import CacheError, CachePinnedError, DomainError, HeavenError
from ..obs.instruments import HeavenInstruments
from ..obs.observability import Observability
from ..tertiary.clock import SimClock
from ..tertiary.disk import DiskDevice
from ..tertiary.library import TapeLibrary
from ..tertiary.profiles import DISK_ARRAY
from .cache import DiskCache, MemoryTileCache, make_policy
from .clustering import ClusteredPlacement, Placement, PlacementPolicy, ScatterPlacement
from .compression import Buffer, Codec, make_codec
from .config import HeavenConfig
from .estar import AccessStatistics, estar_partition, intra_cluster_order
from .export import ExportReport, TCTExporter, join_frames
from .framing import Frame, MultiBoxFrame, read_frame as _read_frame, tiles_in_frame
from .precomputed import PrecomputedCatalog
from .pyramid import PyramidCatalog
from .scheduler import (
    ElevatorScheduler,
    FIFOScheduler,
    ParallelExecutor,
    Scheduler,
    TapeRequest,
)
# star_partition stays importable here: benchmarks/e2e_layers/tracing.py
# wraps it by this module path.
from .super_tile import SuperTile, star_partition, tiles_to_super_tiles  # noqa: F401
from .units import ObjectDescriptor, SubReadRequest, SubReadResponse

if TYPE_CHECKING:
    from .admission import AdmissionController


@dataclass
class ArchivedObject:
    """Bookkeeping of one object migrated to tertiary storage."""

    mdd: MDD
    collection: str
    super_tiles: List[SuperTile]
    tile_to_st: Dict[int, SuperTile]
    disk_copy: bool = True
    #: per-tile on-tape sizes when compression is active (None = logical)
    stored_sizes: Optional[Dict[int, int]] = None
    #: byte run of each staged segment currently in the disk cache
    staged_runs: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: monotonic update counter feeding re-exported segment names (``.vN``)
    version: int = 0

    def super_tile_of(self, tile_id: int) -> SuperTile:
        try:
            return self.tile_to_st[tile_id]
        except KeyError:
            raise HeavenError(
                f"tile {tile_id} of {self.mdd.name!r} has no super-tile"
            ) from None


@dataclass
class RetrievalReport:
    """Cost summary of one hierarchical read: one admission query.

    Event counts, ``super_tiles_staged``, ``waves`` and ``pins`` cover the
    sweeps that served it plus its own assembly; ``bytes_from_tape`` is its
    exact share of those sweeps plus its assembly's reads.
    """

    object_name: str
    region: str
    tiles_needed: int = 0
    super_tiles_staged: int = 0
    bytes_from_tape: int = 0
    bytes_useful: int = 0
    exchanges: int = 0
    virtual_seconds: float = 0.0
    #: injected hardware faults hit while serving this read
    faults: int = 0
    #: backoff delays charged by the recovery layer during this read
    backoffs: int = 0
    #: read of a tape-resident object served entirely from the cache
    #: hierarchy while the library was offline (graceful degradation)
    degraded: bool = False
    #: per-tile restage fallbacks that fired mid-assemble (0 = healthy:
    #: the batch-staged segments survived until their tiles were read)
    restages: int = 0
    #: pin references this read owns — its sweeps' tickets', the ones
    #: handed over to its own ticket and its assembly's restage pins, so a
    #: lone query's count reconciles with the cache-pin metric
    pins: int = 0
    #: eviction nominations skipped over pinned entries while this ran
    pin_evictions_blocked: int = 0
    #: capacity-sized admission waves of the sweeps that served this read
    waves: int = 0

    @property
    def useless_ratio(self) -> float:
        if self.bytes_from_tape == 0:
            return 0.0
        return 1.0 - self.bytes_useful / self.bytes_from_tape


#: trailing version suffix of re-exported segment names (``…/st3.v7``)
_VERSION_RE = re.compile(r"\.v\d+$")


@dataclass
class StagingTicket:
    """Pins held on behalf of one staging batch until assembly finished.

    :meth:`Heaven._stage_many` pins every segment a batch needs — cache
    hits at planning time, fresh insertions at staging time — and hands
    the pins back in a ticket, together with memory-cache pins on the
    tiles the batch will assemble from there: resident tiles it skipped
    staging for, and tiles it drained or salvaged.  The caller releases the
    ticket once the tiles were assembled; until then no insertion (even of
    the same batch) can evict those bytes.  ``release`` is idempotent.

    An admission query owns one ticket from enqueue to assembly: each sweep
    that serves it pins the query's segments (:meth:`hold`) and drained
    tiles onto it before the sweep's own ticket is released.
    """

    cache: DiskCache
    memory: Optional[MemoryTileCache] = None
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
            assert self.memory is not None
            self.memory.unpin(*key)
        held, self.pinned = self.pinned, []
        for key in held:
            try:
                self.cache.unpin(key)
            except CacheError:
                # The entry was invalidated (update/delete) while in
                # flight; its pin references died with it.
                pass


class _Unit(NamedTuple):
    """One unit of an admission query: stage *cover*, then call *answer*."""

    mdd: MDD
    #: tile ids to stage
    cover: List[int]
    #: answers the unit once its cover is staged: region cells, clipped
    #: tiles, a trim's or a frame's cells, or None (a mutation's body)
    answer: Callable[[], Any]


@dataclass
class _SegmentNeed:
    """Merged staging demand on one tape segment across a whole batch."""

    super_tile: SuperTile
    entry: ArchivedObject
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


class Heaven:
    """Hierarchical storage and archive environment for array DBMSs."""

    def __init__(
        self,
        config: Optional[HeavenConfig] = None,
        observability: Union[None, bool, Observability] = None,
    ) -> None:
        self.config = config if config is not None else HeavenConfig()
        self.clock = SimClock(max_events=self.config.event_log_max_events)
        # Observability knob: None follows REPRO_TRACE, a bool switches it
        # explicitly, a prebuilt Observability is adopted (rebound to this
        # instance's clock).  Disabled, every span below is a shared no-op.
        if observability is None:
            self.obs = Observability.from_env(self.clock)
        elif isinstance(observability, Observability):
            self.obs = observability
            self.obs.bind_clock(self.clock)
        else:
            self.obs = Observability(enabled=bool(observability), clock=self.clock)
        self.tracer = self.obs.tracer
        self.db = Database(self.clock)
        self.storage = ArrayStorage(self.db, retain_payload=self.config.retain_payload)
        self.library = TapeLibrary(
            self.config.tape_profile,
            num_drives=self.config.num_drives,
            clock=self.clock,
            faults=self.config.fault_plan,
            retry=self.config.retry_policy,
        )
        self.disk_cache = DiskCache(
            self.config.disk_cache_bytes,
            make_policy(self.config.disk_cache_policy),
            DISK_ARRAY,
            self.clock,
            on_evict=self._on_cache_evict,
        )
        self.memory_cache = MemoryTileCache(self.config.memory_cache_bytes)
        #: extra staging disk of the HSM when attached through one
        #: (Kapitel 3.1.1); None in direct drive attachment (3.1.2).
        self.hsm_staging = (
            DiskDevice("hsm-staging", DISK_ARRAY, self.clock)
            if self.config.attachment == "hsm"
            else None
        )
        self.scheduler: Scheduler = (
            ElevatorScheduler() if self.config.scheduling else FIFOScheduler()
        )
        self.codec: Codec = make_codec(self.config.compression)
        self.precomputed = PrecomputedCatalog()
        self.pyramids = PyramidCatalog()
        self.access_stats: Dict[str, AccessStatistics] = {}
        self._archived: Dict[str, ArchivedObject] = {}
        #: lifetime count of super-tiles created by :meth:`archive`
        self.super_tiles_built = 0
        self.executor = QueryExecutor(
            self.storage.collection,
            condenser_hook=(
                self._condenser_hook if self.config.precompute_aggregates else None
            ),
            scale_hook=(
                self._scale_hook if self.config.pyramid_factors else None
            ),
            materialize=self._materialize_ref,
            mutations=MutationHooks(
                create_collection=self.create_collection,
                drop_collection=self._drop_collection_everywhere,
                delete_object=self.delete,
            ),
            tracer=self.tracer,
        )
        self.executor.register_extension("frame", self._frame_extension)
        self.exporter = TCTExporter(
            self.storage, self.library, tracer=self.tracer, wal=self.db.wal
        )
        #: reads of tape-resident objects served from the caches while the
        #: library was offline (graceful degradation)
        self.degraded_reads_served = 0
        #: lifetime count of per-tile restage fallbacks (thrash indicator;
        #: stays 0 while the pinned staging pipeline is healthy)
        self.restages = 0
        #: staging waves dispatched through the parallel executor
        self.parallel_batches = 0
        #: accumulated makespans of those waves (wall-clock on the sim clock)
        self.parallel_makespan_seconds = 0.0
        #: accumulated device work of those waves (sum over drives + robot);
        #: device work over makespan is the lifetime executed speedup
        self.parallel_device_seconds = 0.0
        #: capacity-sized admission waves ever dispatched by batch staging
        self.staging_waves_admitted = 0
        #: super-tile segment runs ever streamed from tape by batch staging
        self.segments_staged = 0
        #: fused cross-query sweeps dispatched by the admission layer
        self.admission_sweeps = 0
        #: tape bytes cross-query fusion avoided (per fused segment: the sum
        #: of every query's demanded run minus the bytes actually staged)
        self.admission_fusion_saved_bytes = 0
        #: media exchanges fusion avoided (demanding queries minus one per
        #: fused sweep — each would have mounted the medium on its own)
        self.admission_fusion_saved_exchanges = 0
        #: virtual seconds spent inside anticipatory hold-back windows
        self.admission_holdback_seconds = 0.0
        #: tiles demanded by admission queries (every staging), lifetime
        self.read_tiles_needed = 0
        #: bytes returned to callers by admission queries, lifetime
        self.read_bytes_useful = 0
        #: redundant bytes copied on the decode/assembly path, lifetime.
        #: The zero-copy pipeline keeps this at 0: decoded tiles are
        #: read-only views over cache-owned buffers and assembly scatters
        #: straight into the result array.  Any increment marks a
        #: defensive-copy fallback that re-appeared.
        self.assembly_bytes_copied = 0
        #: ticket of the admission query assembling right now.  The
        #: resolver's restage fallback adds the pins it takes onto it, so a
        #: report counts exactly the pins its query caused (a global
        #: ``stats.pins`` delta would charge it for any query's pins).
        self._active_ticket: Optional[StagingTicket] = None
        #: instrument catalog; installed only when observability is on, so a
        #: disabled instance allocates nothing per operation.
        self.instruments: Optional[HeavenInstruments] = (
            HeavenInstruments(self.obs.metrics, self) if self.obs.enabled else None
        )

    # ------------------------------------------------------------------ DDL/DML

    def create_collection(self, name: str) -> Collection:
        """Create a named collection in the array DBMS."""
        return self.storage.create_collection(name)

    def collection(self, name: str) -> Collection:
        return self.storage.collection(name)

    def insert(self, collection_name: str, mdd: MDD) -> int:
        """Persist an MDD on secondary storage (tiles as BLOBs); returns oid."""
        return self.storage.insert_object(collection_name, mdd)

    def is_archived(self, object_name: str) -> bool:
        return object_name in self._archived

    def archived(self, object_name: str) -> ArchivedObject:
        try:
            return self._archived[object_name]
        except KeyError:
            raise HeavenError(f"object {object_name!r} is not archived") from None

    # ------------------------------------------------------------------ archive

    def archive(
        self,
        collection_name: str,
        object_name: str,
        placement: Optional[PlacementPolicy] = None,
        keep_disk_copy: bool = False,
        super_tile_bytes: Optional[int] = None,
    ) -> ExportReport:
        """Migrate an object to tertiary storage.

        Pipeline: partition into super-tiles (eSTAR, fed by collected
        access statistics), order tiles inside each
        super-tile (intra clustering), plan media placement (inter
        clustering or the configured baseline), stream via the decoupled
        TCT exporter, register precomputed aggregates, and optionally
        release the disk copy.

        Args:
            placement: override the placement policy (default: clustered
                when ``config.inter_clustering``, scatter otherwise).
            keep_disk_copy: keep tile BLOBs on secondary storage (dual
                residence) instead of freeing them after export.
            super_tile_bytes: explicit super-tile size for this object.
        """
        collection = self.storage.collection(collection_name)
        mdd = collection.get(object_name)
        if mdd.oid is None:
            raise HeavenError(f"object {object_name!r} must be inserted before archive")
        if object_name in self._archived:
            raise HeavenError(f"object {object_name!r} is already archived")

        stats = self.access_stats.get(object_name)
        target = (
            super_tile_bytes
            if super_tile_bytes is not None
            else self.config.super_tile_bytes
        )
        super_tiles = estar_partition(
            mdd,
            self.config.tape_profile,
            stats=stats,
            target_bytes=target,
            min_bytes=self.config.min_super_tile_bytes,
        )

        if self.config.intra_clustering:
            for super_tile in super_tiles:
                super_tile.tile_ids = intra_cluster_order(super_tile, mdd, stats)

        if placement is None:
            placement = (
                ClusteredPlacement()
                if self.config.inter_clustering
                else ScatterPlacement()
            )
        plan = placement.plan(super_tiles, self.library)

        if self.config.precompute_aggregates and mdd.cell_type.dtype.fields is None:
            self.precomputed.register_object(mdd)
        if self.config.pyramid_factors and mdd.cell_type.dtype.fields is None:
            # Materialise zoom levels while the tiles are still on disk.
            self.pyramids.build(mdd, self.config.pyramid_factors)

        # Each tile's frame, encoded from its BLOB (an uncharged peek, as in
        # the exporter's assembly).
        stored_sizes, frames = self._frames(
            mdd,
            {
                tile_id: self.db.blobs.peek(self.storage.blob_oid_of(mdd.oid, tile_id))
                for tile_id in mdd.tiles
            },
            kept={},
        )
        for super_tile in super_tiles:
            super_tile.size_bytes = sum(stored_sizes[t] for t in super_tile.tile_ids)
        try:
            with self.tracer.span(
                "heaven.archive", object=object_name, super_tiles=len(super_tiles)
            ):
                report = self.exporter.export(
                    mdd, plan, stored_sizes=stored_sizes, frames=frames
                )
        except Exception:
            # The exporter's journal rolled the written segments back: the
            # object stays disk-resident and re-archivable.
            self.precomputed.drop_object(object_name)
            self.pyramids.drop_object(object_name)
            raise
        if self.hsm_staging is not None:
            # HSM attachment: every migrated file passes through the HSM's
            # staging area on its way to tape.
            for super_tile in super_tiles:
                self.hsm_staging.write(
                    super_tile.size_bytes, detail=f"hsm migrate st{super_tile.index}"
                )

        entry = ArchivedObject(
            mdd=mdd,
            collection=collection_name,
            super_tiles=super_tiles,
            tile_to_st=tiles_to_super_tiles(super_tiles),
            stored_sizes=stored_sizes if self.codec.name != "none" else None,
        )
        self._archived[object_name] = entry
        self.super_tiles_built += len(super_tiles)
        mdd.resolver = self._resolve_tile
        mdd.drop_payloads()
        if not keep_disk_copy:
            self._release_disk_copy(entry)
        return report

    def _release_disk_copy(self, entry: ArchivedObject) -> None:
        """Free the secondary-storage tile BLOBs after successful export."""
        mdd = entry.mdd
        assert mdd.oid is not None
        for row in self.storage.tile_rows(mdd.oid):
            self.db.delete_blob(row["blob_oid"])
        # Keep the catalog rows: the object still exists logically; only the
        # payloads moved down the hierarchy.
        entry.disk_copy = False

    def _drop_collection_everywhere(self, name: str) -> None:
        """DDL hook: drop a collection, releasing archived objects too."""
        collection = self.storage.collection(name)
        for mdd in list(collection):
            self.delete(name, mdd.name)
        self.db.delete_rows("ras_collections", lambda r: r["name"] == name)
        self.storage._collections.pop(name, None)

    def _frames(
        self,
        mdd: MDD,
        raws: Dict[int, Optional[bytes]],
        kept: Dict[int, Optional[memoryview]],
    ) -> Tuple[Dict[int, int], Dict[int, Optional[Buffer]]]:
        """On-tape sizes and frames of tiles: the one frame builder of
        :meth:`archive` and :meth:`update`.

        Tiles in *raws* are encoded from their cells' bytes, all of them in
        one :meth:`Codec.compress_all` batch; tiles in *kept* keep the frame
        they already have on tape, sliced out of the old segment.  A tile
        whose source bytes are None (a size-only BLOB or segment) has no
        frame and is accounted at :meth:`Codec.estimated_size`.
        """
        frames: Dict[int, Optional[Buffer]] = {**kept, **dict.fromkeys(raws)}
        encode = [tile_id for tile_id, raw in raws.items() if raw is not None]
        itemsize = mdd.cell_type.dtype.itemsize
        frames.update(zip(encode, self.codec.compress_all([raws[t] for t in encode], itemsize)))
        sizes = {
            tile_id: self.codec.estimated_size(mdd.tiles[tile_id].size_bytes)
            if frame is None
            else len(frame)
            for tile_id, frame in frames.items()
        }
        return sizes, frames

    # ------------------------------------------------------------------ retrieval
    #
    # Every staging is an admission query (see :mod:`.admission`) over
    # units (see ``_Unit``): ``read_with_report`` is a query of one unit,
    # ``read_many`` a query of N units, and every other staging caller a
    # query of one unit through ``_query_unit``.

    def read(self, collection_name: str, object_name: str, region: MInterval) -> np.ndarray:
        """Read a region across the hierarchy; returns the assembled cells."""
        cells, _report = self.read_with_report(collection_name, object_name, region)
        return cells

    def _resolve_unit(
        self,
        collection_name: str,
        object_name: str,
        region: MInterval,
        tile_ids: Optional[Sequence[int]] = None,
    ) -> _Unit:
        """Look one read unit up and validate it, recording nothing, so a
        rejected read stages nothing and leaves the access statistics
        (eSTAR's input) alone.  It answers with the region's cells, or with
        ``{tile_id: cells}`` for *tile_ids* (the sharded form), each tile
        clipped to its overlap with the region."""
        mdd = self.storage.collection(collection_name).get(object_name)
        if tile_ids is None:
            if not mdd.domain.contains(region):
                raise DomainError(f"read region {region} outside object domain {mdd.domain}")
            cover = [t.tile_id for t in mdd.tiles_for(region)]
            return _Unit(mdd, cover, lambda: mdd.read(region))
        for tile_id in tile_ids:
            if tile_id not in mdd.tiles:
                raise HeavenError(f"object {object_name!r} has no tile {tile_id}")
            if not mdd.tiles[tile_id].domain.intersects(region):
                raise HeavenError(f"tile {tile_id} of {object_name!r} does not intersect {region}")
        cover = sorted(tile_ids)

        def clipped_tiles() -> Dict[int, np.ndarray]:
            answer = {}
            for tile_id in cover:
                tile = mdd.tiles[tile_id]
                cells = mdd.materialize_tile(tile)
                clip = tile.domain.intersection(region)
                assert clip is not None  # rejected above
                if clip != tile.domain:
                    cells = cells[clip.to_slices(tile.domain)]
                answer[tile_id] = cells
            return answer

        return _Unit(mdd, cover, clipped_tiles)

    def read_with_report(
        self, collection_name: str, object_name: str, region: MInterval
    ) -> Tuple[np.ndarray, RetrievalReport]:
        """Like :meth:`read` but also returns the cost report."""
        unit = self._resolve_unit(collection_name, object_name, region)
        self._record_access(unit.mdd, region)
        label = (object_name, str(region))
        with self.tracer.span("heaven.read", object=object_name, region=label[1]):
            (cells,), report = self._admission().run_query([unit], label)
        return cells, report

    def read_many(
        self, requests: Sequence[Tuple[str, str, MInterval]]
    ) -> Tuple[List[np.ndarray], RetrievalReport]:
        """Answer several (collection, object, region) reads as ONE query:
        the per-request cell arrays and one combined cost report.

        Inter-query scheduling (Kapitel 3.4.3): the tape requests of every
        read are merged and ordered together, so each medium is exchanged
        at most once per batch even when the reads interleave objects.
        """
        units = [self._resolve_unit(*request) for request in requests]
        for unit, (_collection, _name, region) in zip(units, requests):
            self._record_access(unit.mdd, region)
        label = (",".join(sorted({unit.mdd.name for unit in units})), f"batch of {len(units)}")
        with self.tracer.span("heaven.read_many", batch=len(units)):
            return self._admission().run_query(units, label)

    def serve_sub_reads(
        self, requests: Sequence[SubReadRequest]
    ) -> List[SubReadResponse]:
        """:meth:`AdmissionController.run_units`'s responses, under the name
        the service benchmark's layer table (``benchmarks/e2e_layers``)
        traces."""
        return self._admission().run_units(requests)[0]

    def _admission(self) -> "AdmissionController":
        """A fresh controller: the one driver of every staging."""
        from .admission import AdmissionController  # imports this module

        return AdmissionController(self)

    def _query_unit(
        self, mdd: MDD, cover: Sequence[int], answer: Callable[[], Any], label: str
    ) -> Any:
        """Stage *cover* of *mdd* and return ``answer()``: one admission
        query of one unit, reported as ``(mdd.name, label)``."""
        unit = _Unit(mdd, list(cover), answer)
        (result,), _report = self._admission().run_query([unit], (mdd.name, label))
        return result

    def read_frame(
        self, collection_name: str, object_name: str, frame: Frame, fill: float = 0.0
    ) -> Tuple[MArray, np.ndarray]:
        """Framed read (Object Framing): fetch only tiles inside the frame."""
        mdd = self.storage.collection(collection_name).get(object_name)
        with self.tracer.span("heaven.read_frame", object=object_name):
            return self._framed(mdd, frame, fill, record=True)

    def _framed(
        self, mdd: MDD, frame: Frame, fill: float = 0.0, *, record: bool = False
    ) -> Tuple[MArray, np.ndarray]:
        """The one frame path of :meth:`read_frame` and ``frame()``: stage
        the tiles the frame truly intersects, then read exactly its cells
        (*record* files the frame's hull in the access statistics)."""
        needed = [tile.tile_id for tile in tiles_in_frame(mdd, frame)]
        hull = frame.bounding_box().intersection(mdd.domain) or mdd.domain
        if record and needed:
            self._record_access(mdd, hull)
        framed = lambda: _read_frame(mdd, frame, fill=fill)  # noqa: E731
        return self._query_unit(mdd, needed, framed, str(hull))

    def query(self, text: str) -> List[QueryResult]:
        """Run a RasQL query transparently over the whole hierarchy."""
        return self.executor.execute(text)

    def describe_object(
        self, collection_name: str, object_name: str
    ) -> ObjectDescriptor:
        """Shardable metadata of one object for the SN/DN service tier.

        A service node routes tiles by :meth:`ObjectDescriptor.shard_key`:
        archived tiles hash by their super-tile segment name (so a whole
        super-tile lands on one data node and its tape run is never split),
        disk-resident tiles by a synthetic per-tile key.
        """
        mdd = self.storage.collection(collection_name).get(object_name)
        entry = self._archived.get(object_name)
        tile_segments: Dict[int, str] = {}
        if entry is not None:
            for tile_id, super_tile in entry.tile_to_st.items():
                if super_tile.segment_name is not None:
                    tile_segments[tile_id] = super_tile.segment_name
        return ObjectDescriptor(
            collection=collection_name,
            name=object_name,
            domain=str(mdd.domain),
            dtype=mdd.cell_type.name,
            tile_domains=tuple(
                str(mdd.tiles[tile_id].domain) for tile_id in sorted(mdd.tiles)
            ),
            tile_segments=tile_segments,
            archived=entry is not None,
        )

    # ------------------------------------------------------------------ staging

    def _stage_many(
        self,
        pairs: Sequence[Tuple[MDD, Sequence[int]]],
        needs: Optional[Dict[str, _SegmentNeed]] = None,
    ) -> StagingTicket:
        """Batch-stage tiles of several objects in one scheduled tape pass.

        Its callers: every admission sweep (the *needs* its queries
        collected, merged per segment) and the resolver's restage fallback.

        This is the inter-query scheduling path (Kapitel 3.4.3): requests
        of all queries in the batch are merged and ordered together, so
        each medium is exchanged at most once per batch.  Three guarantees
        keep the batch from defeating itself:

        * required byte runs are **merged per segment across the whole
          batch** before any request is built, so two queries sharing a
          super-tile trigger exactly one tape run covering both;
        * every segment the batch relies on is **pinned** — cache hits at
          planning time, fresh stages at insertion time — until the caller
          releases the returned ticket, so a later insertion of the same
          batch can never evict bytes whose tiles are still unread;
        * batches larger than the disk cache are admitted in
          capacity-sized **waves** (stage → materialise into the memory
          tile cache → unpin) instead of thrashing through per-tile
          restages.
        """
        ticket = StagingTicket(cache=self.disk_cache, memory=self.memory_cache)
        try:
            with self.tracer.span("heaven.stage") as stage_span:
                with self.tracer.span("cache.lookup"):
                    if needs is None:
                        needs = self.collect_needs(pairs, ticket.tile_pins)
                    ticket.requests = self.plan_requests(needs, ticket)
                if ticket.requests:
                    self.execute_staging(ticket.requests, needs, ticket)
                stage_span.set(
                    super_tiles=ticket.staged,
                    bytes_from_tape=ticket.bytes_from_tape,
                    waves=ticket.waves,
                    pins=ticket.pins,
                )
            if self.instruments is not None and stage_span.enabled:
                self.instruments.observe_stage_wall(stage_span.wall_elapsed)
        except BaseException:
            ticket.release()
            raise
        return ticket

    # The three staging units below are the stages of ``_stage_many``.  The
    # admission layer (:mod:`repro.core.admission`) calls ``collect_needs``
    # itself, once per query at enqueue, and hands the merged needs of a
    # sweep back to ``_stage_many``; per-layer profilers wrap all three.

    def collect_needs(
        self,
        pairs: Sequence[Tuple[MDD, Sequence[int]]],
        tile_pins: List[Tuple[str, int]],
    ) -> Dict[str, _SegmentNeed]:
        """Merge the needed tiles of the whole batch per tape segment.

        Merging *before* planning (instead of first-request-wins) is what
        turns a shared super-tile into one covering run even when two
        batch queries need disjoint tiles of it.

        Each returned need carries the byte run its tiles need
        (``_required_run``, computed here once).

        The memory tile cache short-circuits staging only at segment
        granularity: a segment is skipped when *every* needed tile is
        already decoded in memory.  A partially-cached segment keeps all
        its needed tiles in the merged run — the memory cache is volatile
        (an eviction mid-assemble would narrow-miss the staged run and
        defeat the pin guarantee), the pinned disk run is not.  The tiles
        of a skipped segment are pinned in the memory cache instead and
        their keys appended to *tile_pins*; the caller unpins them once it
        assembled them.  The probe is a ``peek``: planning is not an
        access, so it neither counts in the memory cache's statistics nor
        raises a tile's rank.
        """
        needs: Dict[str, _SegmentNeed] = {}
        stageable: set = set()
        for mdd, tile_ids in pairs:
            entry = self._archived.get(mdd.name)
            if entry is None or entry.disk_copy:
                continue  # disk-resident (or dual-resident): nothing to stage
            for tile_id in tile_ids:
                super_tile = entry.super_tile_of(tile_id)
                assert super_tile.segment_name is not None
                key = super_tile.segment_name
                need = needs.get(key)
                if need is None:
                    need = needs[key] = _SegmentNeed(super_tile, entry, mdd)
                if tile_id not in need.tile_ids:
                    need.tile_ids.append(tile_id)
                    if not self.memory_cache.peek(mdd.name, tile_id):
                        stageable.add(key)
        out: Dict[str, _SegmentNeed] = {}
        for key, need in needs.items():
            if key in stageable:
                need.run = self._required_run(need.super_tile, need.tile_ids)
                out[key] = need
                continue
            for tile_id in need.tile_ids:
                self._pin_resident(tile_pins, need.mdd.name, tile_id)
        return out

    def _pin_resident(
        self, tile_pins: List[Tuple[str, int]], object_name: str, tile_id: int
    ) -> None:
        """Pin a tile a batch will assemble from the memory cache, recording
        the key in *tile_pins*; a no-op when the cache did not admit it."""
        if self.memory_cache.peek(object_name, tile_id):
            self.memory_cache.pin(object_name, tile_id)
            tile_pins.append((object_name, tile_id))

    def plan_requests(
        self, needs: Dict[str, _SegmentNeed], ticket: StagingTicket
    ) -> List[TapeRequest]:
        """Turn merged needs into tape requests; pin covering cache hits."""
        requests: List[TapeRequest] = []
        for key, need in needs.items():
            entry = need.entry
            run = need.run
            if self.disk_cache.lookup(key):
                cached = entry.staged_runs.get(key)
                if cached is not None and self._covers(cached, run):
                    # Hit: pin it so later insertions of this very batch
                    # cannot evict it before its tiles are assembled.
                    ticket.hold(key)
                    need.run = cached
                    continue
                # Cached run too small: restage the contiguous union of
                # cached and needed (never more than the segment).
                self.disk_cache.invalidate(key)
                entry.staged_runs.pop(key, None)
                if cached is not None:
                    start = min(cached[0], run[0])
                    end = max(cached[0] + cached[1], run[0] + run[1])
                    run = (start, end - start)
            medium_id, segment = self.library.segment(key)
            need.run = run
            requests.append(
                TapeRequest(
                    key=key,
                    medium_id=medium_id,
                    offset=segment.offset + run[0],
                    length=run[1],
                    query_id=min(need.query_ids, default=0),
                    query_ids=need.query_ids,
                )
            )
        if self.config.prefetch == "sequential":
            self._add_prefetch(requests, needs)
        return requests

    def execute_staging(
        self,
        requests: Sequence[TapeRequest],
        needs: Dict[str, _SegmentNeed],
        ticket: StagingTicket,
    ) -> None:
        """Order planned *requests* and stream them in capacity-sized waves.

        The execution half of the staging pipeline: scheduler ordering
        (elevator sweeps per medium) followed by pinned wave admission.
        Requests of needs fused across queries carry the demanding query
        ids, so the admission layer splits their bytes afterwards with
        :func:`~repro.core.scheduler.attribute_request_bytes`.

        Waves cut the ordered request stream greedily at the cache's free
        budget (capacity minus currently pinned bytes), preserving the
        scheduler's order so the mount-once property of the batch
        survives.  Every non-final wave materialises its tiles into the
        memory tile cache and unpins before the next wave claims the
        space; the final wave's pins ride on the ticket until the caller
        assembled its tiles.
        """
        with self.tracer.span("scheduler.plan", requests=len(requests)):
            ordered = self.scheduler.order(list(requests), self.library)
        capacity = self.disk_cache.capacity_bytes
        index, total = 0, len(ordered)
        with self.tracer.span("library.stage", requests=total):
            while index < total:
                budget = max(0, capacity - self.disk_cache.pinned_bytes)
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
                self.staging_waves_admitted += 1
                staged_keys = self._stage_wave(wave, needs, ticket)
                if index < total:
                    self._drain_wave(staged_keys, needs, ticket)
        ticket.staged = total
        self.segments_staged += total

    def _stage_wave(
        self,
        wave: Sequence[TapeRequest],
        needs: Dict[str, _SegmentNeed],
        ticket: StagingTicket,
    ) -> List[str]:
        """Stream one wave of requests from tape into the disk cache.

        With ``config.parallel_drives > 1`` (and a library that has the
        stations) the wave is dispatched through the
        :class:`~repro.core.scheduler.ParallelExecutor`: one virtual
        timeline per drive, whole-media sweeps, the robot arm serialised
        across timelines, and landing (:meth:`_land_staged`) pipelined on
        the assembly timeline while the drives stream on.  The serial
        path stays byte-for-byte what it always was.
        """
        staged_keys: List[str] = []
        if self.config.parallel_drives > 1 and len(self.library.drives) > 1:
            executor = ParallelExecutor(
                self.library,
                num_drives=self.config.parallel_drives,
                tracer=self.tracer,
            )
            report = executor.execute(
                wave,
                on_staged=lambda request: self._land_staged(
                    request, needs, ticket, staged_keys
                ),
            )
            self.parallel_batches += 1
            self.parallel_makespan_seconds += report.makespan_seconds
            self.parallel_device_seconds += report.serial_device_seconds
            return staged_keys
        for request in wave:
            self.library.read_extent(
                request.medium_id, request.offset, request.length
            )
            self._land_staged(request, needs, ticket, staged_keys)
        return staged_keys

    def _land_staged(
        self,
        request: TapeRequest,
        needs: Dict[str, _SegmentNeed],
        ticket: StagingTicket,
        staged_keys: List[str],
    ) -> None:
        """Land one streamed request in the cache hierarchy.

        The post-tape half of staging: the HSM double hop, the disk-cache
        insertion (pinned) and the bookkeeping.  Serial staging calls it
        right after ``read_extent``; the parallel executor calls it on the
        assembly timeline, so the disk/HSM charges below overlap the
        drive streaming its next run.
        """
        need = needs[request.key]
        run_start, run_length = need.run
        if self.hsm_staging is not None:
            # Double hop: the HSM lands the file in its own staging
            # area before HEAVEN can copy it into the cache hierarchy.
            self.hsm_staging.write(
                run_length, detail=f"hsm stage {request.key}"
            )
            self.hsm_staging.read(
                run_length, detail=f"hsm serve {request.key}"
            )
        payload = self._segment_payload(request.key, run_start, run_length)
        refetch = self._refetch_cost(run_length)
        ticket.bytes_from_tape += request.length
        if need.prefetch:
            # Prefetch is opportunistic: never pinned, and simply
            # dropped when the cache cannot take it (pinned residue
            # or a run larger than the whole cache).
            try:
                self.disk_cache.insert(
                    request.key, run_length, refetch, payload=payload
                )
            except CacheError:
                return
            need.entry.staged_runs[request.key] = need.run
            return
        try:
            self.disk_cache.insert(
                request.key, run_length, refetch, payload=payload, pin=True
            )
        except CacheError:
            # The cache cannot take this run — every byte is pinned by
            # in-flight batches, or the run alone exceeds the whole
            # capacity.  It is already streamed, so decode its tiles
            # straight into the memory cache instead of dropping the
            # bytes.
            self._materialize_from_run(need, payload, ticket)
            return
        ticket.pinned.append(request.key)
        ticket.pins += 1
        need.entry.staged_runs[request.key] = need.run
        staged_keys.append(request.key)

    def _materialize_from_run(
        self,
        need: _SegmentNeed,
        payload: Optional[Union[bytes, memoryview]],
        ticket: StagingTicket,
    ) -> None:
        """Decode a streamed run's tiles directly into the memory cache.

        Degraded path for a fully-pinned disk cache: the tape bytes were
        paid for, so the tiles are salvaged even though the segment cannot
        be cached on disk — force-admitted and pinned on *ticket*, as the
        memory cache is now their only copy above tape.
        """
        run_start, _run_length = need.run
        for tile_id in need.tile_ids:
            tile = need.mdd.tiles[tile_id]
            offset, length = need.super_tile.tile_extents[tile_id]
            raw = None
            if payload is not None:
                raw = payload[offset - run_start : offset - run_start + length]
            self._decode_and_cache(need.entry, need.mdd, tile, raw, force=True)
            self._pin_resident(ticket.tile_pins, need.mdd.name, tile_id)

    def _drain_wave(
        self,
        staged_keys: Sequence[str],
        needs: Dict[str, _SegmentNeed],
        ticket: StagingTicket,
    ) -> None:
        """Materialise a finished wave's tiles, then release its pins.

        The tiles are force-admitted to the memory cache and pinned there
        on *ticket*: once the disk pins are gone, that is where the batch's
        assembly will look for them.
        """
        with self.tracer.span("heaven.drain", segments=len(staged_keys)):
            for key in staged_keys:
                need = needs[key]
                for tile_id in need.tile_ids:
                    self._resolve_tile(need.mdd, need.mdd.tiles[tile_id], force=True)
                    self._pin_resident(ticket.tile_pins, need.mdd.name, tile_id)
                try:
                    self.disk_cache.unpin(key)
                except CacheError:
                    pass  # invalidated while draining (shouldn't happen)
                if key in ticket.pinned:
                    ticket.pinned.remove(key)

    def _required_run(
        self, super_tile: SuperTile, needed: Sequence[int]
    ) -> Tuple[int, int]:
        if self.hsm_staging is not None:
            # HSM attachment: the file is the smallest unit of access.
            return (0, super_tile.size_bytes)
        if self.config.partial_super_tile_reads and needed:
            return super_tile.run_covering(list(needed))
        return (0, super_tile.size_bytes)

    @staticmethod
    def _covers(cached: Tuple[int, int], run: Tuple[int, int]) -> bool:
        return cached[0] <= run[0] and run[0] + run[1] <= cached[0] + cached[1]

    def _add_prefetch(
        self,
        requests: List[TapeRequest],
        needs: Dict[str, _SegmentNeed],
    ) -> None:
        """Sequential prefetch: also stage the next super-tile(s) in cluster
        order when they live on a medium the batch already mounts."""
        media_in_batch = {r.medium_id for r in requests}
        extra: List[TapeRequest] = []
        for request in list(requests):
            need = needs[request.key]
            entry = need.entry
            for step in range(1, self.config.prefetch_depth + 1):
                next_index = need.super_tile.index + step
                if next_index >= len(entry.super_tiles):
                    break
                neighbour = entry.super_tiles[next_index]
                key = neighbour.segment_name
                if key is None or key in needs:
                    continue
                if neighbour.medium_id not in media_in_batch:
                    continue
                if key in self.disk_cache:
                    continue
                medium_id, segment = self.library.segment(key)
                extra.append(
                    TapeRequest(
                        key=key,
                        medium_id=medium_id,
                        offset=segment.offset,
                        length=neighbour.size_bytes,
                    )
                )
                needs[key] = _SegmentNeed(
                    neighbour,
                    entry,
                    need.mdd,
                    run=(0, neighbour.size_bytes),
                    prefetch=True,
                )
        requests.extend(extra)

    def _segment_payload(
        self, key: str, run_start: int, run_length: int
    ) -> Optional[memoryview]:
        """Read-only view of a segment run's bytes (zero-copy).

        The library keeps segment payloads as immutable ``bytes``; a
        sliced view of them is what lands in the disk cache, so staging a
        run never duplicates the streamed bytes in host memory.
        """
        medium_id = self.library.locate(key)
        payload = self.library.medium(medium_id).payload(key)
        if payload is None:
            return None
        return memoryview(payload)[run_start : run_start + run_length].toreadonly()

    def _refetch_cost(self, nbytes: int) -> float:
        """Estimated tape cost to re-stage *nbytes* (feeds the GDS policy)."""
        profile = self.config.tape_profile
        return (
            profile.full_exchange_time()
            + profile.avg_seek_time_s / 2.0
            + profile.transfer_time(nbytes)
        )

    def _on_cache_evict(self, key: str) -> None:
        for entry in self._archived.values():
            entry.staged_runs.pop(key, None)

    # ------------------------------------------------------------------ resolver

    def _resolve_tile(self, mdd: MDD, tile: Tile, force: bool = False) -> np.ndarray:
        """Tile resolver installed on archived objects.

        Memory cache → (disk copy, when dual-resident) → disk cache →
        (stage from tape, then disk cache).  A tile it had to build is
        offered to the memory cache (*force* admits it unconditionally).
        """
        cached = self.memory_cache.get(mdd.name, tile.tile_id)
        if cached is not None:
            return cached
        entry = self._archived.get(mdd.name)
        if entry is None:
            raise HeavenError(f"resolver called for unarchived object {mdd.name!r}")
        if entry.disk_copy:
            # Dual residence (keep_disk_copy=True): the faster copy wins,
            # read by the storage manager's own BLOB resolver.
            assert mdd.oid is not None
            cells = self.storage._make_resolver(mdd.oid)(mdd, tile)
            return self._cache_tile(mdd, tile, cells, free=False, force=force)
        super_tile = entry.super_tile_of(tile.tile_id)
        key = super_tile.segment_name
        assert key is not None
        extent = tile_offset, tile_length = super_tile.tile_extents[tile.tile_id]

        def covering_run() -> Optional[Tuple[int, int]]:
            run = entry.staged_runs.get(key)
            if key in self.disk_cache and run is not None and self._covers(run, extent):
                return run
            return None

        run = covering_run()
        if run is None:
            # Fallback: the segment is gone (or its run too narrow) even
            # though batch staging ran — the thrash class the pinned
            # pipeline exists to prevent.  Count it and leave a marker
            # event so span windows and CI can see it.
            self.restages += 1
            self.clock.charge(
                0.0, "restage", "heaven-cache",
                detail=f"{key}:{tile.tile_id}",
            )
            try:
                restaged = self._stage_many([(mdd, [tile.tile_id])])
            except CachePinnedError:
                pass
            else:
                # Nothing can insert into the cache between this release
                # and the read below, so the pins are not held across it;
                # they were taken on behalf of the batch being assembled.
                restaged.release()
                if self._active_ticket is not None:
                    self._active_ticket.pins += restaged.pins
            run = covering_run()
            if run is None:
                # Either the staging wave degraded (cache fully pinned,
                # tile materialised straight into the memory cache) or the
                # re-staged run landed narrower/shifted — e.g. an
                # interleaved batch re-planned the segment around its own
                # tiles.  Reading through a non-covering run would compute
                # a negative in-run offset (CacheError) or, worse, silently
                # decode the wrong bytes.
                cached = self.memory_cache.get(mdd.name, tile.tile_id)
                if cached is not None:
                    return cached
                # Last resort: stream just this tile's extent off tape,
                # bypassing the disk cache entirely.
                medium_id, _segment = self.library.segment(key)
                self.library.read_extent(
                    medium_id, _segment.offset + tile_offset, tile_length
                )
                raw = self._segment_payload(key, tile_offset, tile_length)
                return self._decode_and_cache(entry, mdd, tile, raw, force)
        raw = self.disk_cache.read(key, tile_offset - run[0], tile_length)
        return self._decode_and_cache(entry, mdd, tile, raw, force)

    def _decode_and_cache(
        self,
        entry: ArchivedObject,
        mdd: MDD,
        tile: Tile,
        raw: Optional[Union[bytes, memoryview]],
        force: bool,
    ) -> np.ndarray:
        """Decode *raw* (see :meth:`_decode_tile`) and offer the cells to
        the memory cache — as a free tile when they are a view over *raw*."""
        cells = self._decode_tile(entry, mdd, tile, raw)
        free = raw is not None and self.codec.decodes_to_view(raw)
        return self._cache_tile(mdd, tile, cells, free=free, force=force)

    def _cache_tile(
        self, mdd: MDD, tile: Tile, cells: np.ndarray, *, free: bool, force: bool
    ) -> np.ndarray:
        """Offer *cells* to the memory tile cache; return the frozen array.

        The cache owns freezing and admission (see
        :meth:`MemoryTileCache.put`); when it had to snapshot a writable
        view to freeze safely, the snapshot — not the caller's writable
        alias — is what resolver callers must see, and the copied bytes are
        charged to the zero-copy counter.
        """
        stored = self.memory_cache.put(
            mdd.name, tile.tile_id, cells, free=free, force=force
        )
        if stored is not cells:
            self.assembly_bytes_copied += int(stored.nbytes)
        return stored

    def _decode_tile(
        self,
        entry: ArchivedObject,
        mdd: MDD,
        tile: Tile,
        raw: Optional[Union[bytes, memoryview]],
    ) -> np.ndarray:
        """Decode one tile's staged bytes (or regenerate from its source).

        Zero-copy: the returned array is a **read-only view** — over the
        cache-owned segment bytes for uncompressed payloads, over the
        codec's freshly-decompressed buffer otherwise.  No defensive copy:
        the buffers underneath are either immutable (``bytes``/read-only
        ``memoryview``) or exclusively owned by this decode.
        """
        if raw is not None:
            view: Union[bytes, memoryview]
            if entry.stored_sizes is not None:
                view = self.codec.decompress_view(raw, tile.size_bytes)
            elif isinstance(raw, memoryview):
                view = raw.toreadonly()
            else:
                view = raw  # bytes: immutable already
            return np.frombuffer(view, dtype=mdd.cell_type.dtype).reshape(
                tile.domain.shape
            )
        if mdd.source is not None:
            return mdd.source.region(tile.domain, mdd.cell_type)
        raise HeavenError(
            f"tile {tile.tile_id} of {mdd.name!r}: payload not retained and "
            "no source to regenerate from"
        )

    # ------------------------------------------------------------------ lifecycle

    def delete(self, collection_name: str, object_name: str) -> None:
        """Delete an object everywhere: caches, tape segments, catalogs."""
        entry = self._archived.pop(object_name, None)
        if entry is not None:
            self._detach_from_tape(entry)
            self.precomputed.drop_object(object_name)
            self.pyramids.drop_object(object_name)
            entry.mdd.resolver = None
        self.storage.delete_object(collection_name, object_name)

    def _detach_from_tape(self, entry: ArchivedObject) -> None:
        """Release *entry*'s tape segments, cached runs and tiles."""
        for super_tile in entry.super_tiles:
            if super_tile.segment_name is not None:
                self._retire_segment(entry, super_tile.segment_name)
                super_tile.segment_name = None
                super_tile.medium_id = None
        self.memory_cache.invalidate_object(entry.mdd.name)

    def _retire_segment(self, entry: ArchivedObject, key: str) -> None:
        """Drop segment *key* of *entry* from the disk cache, the staged-run
        map and tape."""
        self.disk_cache.invalidate(key)
        entry.staged_runs.pop(key, None)
        self.library.delete_segment(key)

    def update(
        self,
        collection_name: str,
        object_name: str,
        region: MInterval,
        cells: np.ndarray,
    ) -> int:
        """Update a region of an archived object; returns re-exported count.

        Affected super-tiles are staged, patched in memory and re-exported
        as fresh segments (tape is append-only; old segments become dead
        space) by :meth:`_rewrite_segments`.  A failure anywhere leaves the
        object readable with its old bytes: in-memory payloads are dropped
        either way, and the caches, aggregates and pyramids refresh only
        after every new segment is on tape.
        """
        collection = self.storage.collection(collection_name)
        mdd = collection.get(object_name)
        # Reject a bad write before anything is staged.
        cells = mdd.checked_write(region, cells)
        affected = {t.tile_id for t in mdd.tiles_for(region)}
        entry = self._archived.get(object_name)
        if entry is None:
            mdd.write(region, cells)
            # Persist the change: a later archive assembles segments from
            # the tile BLOBs, not the in-memory payloads, so an update
            # left only in memory would be silently lost at export time.
            self.storage.rewrite_tiles(mdd, sorted(affected), attrgetter("payload"))
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
                tile.set_payload(self._resolve_tile(mdd, tile))

        try:
            self._query_unit(mdd, tiles_to_load, load, str(region))
            mdd.write(region, cells)
            self._rewrite_segments(
                entry, [entry.super_tiles[i] for i in sorted(affected_sts)], affected
            )
            if entry.disk_copy:
                # Dual residence: refresh the disk copy's tile BLOBs too.
                self.storage.rewrite_tiles(mdd, tiles_to_load, attrgetter("payload"))
            # Pyramid levels over the old cells are stale now.
            self.pyramids.invalidate(object_name)
            # Refresh caches and aggregates.
            for tile_id in tiles_to_load:
                self.memory_cache.put(
                    mdd.name, tile_id, mdd.tiles[tile_id].payload
                )
                if self.config.precompute_aggregates and mdd.cell_type.dtype.fields is None:
                    self.precomputed.refresh_tile(mdd, tile_id)
        finally:
            for tile_id in tiles_to_load:
                mdd.tiles[tile_id].drop_payload()
        return len(affected_sts)

    def _rewrite_segments(
        self, entry: ArchivedObject, super_tiles: List[SuperTile], dirty: Set[int]
    ) -> None:
        """Re-export *super_tiles* of *entry* from their patched payloads.

        Only the *dirty* tiles are encoded; every clean tile's frame is
        sliced verbatim out of its old segment with the old extents (an
        uncharged peek: the update paid for that tape read when it staged
        the super-tile).  A size-only old segment gives a size-only new one.
        The new segments are written, and the catalog switched to them,
        inside one exporter journal transaction; the old segments are
        retired only after its COMMIT.  A failed write rolls the journal
        back and changes nothing else; a crash before COMMIT leaves new
        segments that :func:`~repro.core.export.recover_incomplete_exports`
        removes.
        """
        mdd = entry.mdd
        raws: Dict[int, Optional[bytes]] = {}
        kept: Dict[int, Optional[memoryview]] = {}
        for super_tile in super_tiles:
            assert super_tile.segment_name is not None and super_tile.medium_id is not None
            old = self.library.medium(super_tile.medium_id).payload(super_tile.segment_name)
            for tile_id in super_tile.tile_ids:
                if old is None:
                    kept[tile_id] = None
                elif tile_id in dirty:
                    raws[tile_id] = np.ascontiguousarray(
                        mdd.tiles[tile_id].payload, dtype=mdd.cell_type.dtype
                    ).tobytes()
                else:
                    offset, length = super_tile.tile_extents[tile_id]
                    kept[tile_id] = memoryview(old)[offset : offset + length]
        sizes, frames = self._frames(mdd, raws, kept)
        version = entry.version + 1
        old_keys = [super_tile.segment_name for super_tile in super_tiles]
        with self.exporter.journal(mdd.name) as write:
            moved = []
            for super_tile, old_key in zip(super_tiles, old_keys):
                # Version the name off the object's monotonic update counter:
                # stable length, collision-free even with zero elapsed
                # virtual time between exports.
                new_key = f"{_VERSION_RE.sub('', old_key)}.v{version}"
                medium_id = write(
                    new_key,
                    sum(sizes[t] for t in super_tile.tile_ids),
                    join_frames(frames, super_tile.tile_ids),
                )
                moved.append((super_tile, new_key, medium_id))
            for super_tile, new_key, medium_id in moved:
                super_tile.size_bytes = sum(sizes[t] for t in super_tile.tile_ids)
                super_tile.assign_extents(sizes)
                super_tile.segment_name = new_key
                super_tile.medium_id = medium_id
            entry.version = version
            if entry.stored_sizes is not None:
                entry.stored_sizes.update(sizes)
        for old_key in old_keys:
            self._retire_segment(entry, old_key)

    def reimport(self, collection_name: str, object_name: str) -> int:
        """Bring an archived object fully back to secondary storage.

        Stages every super-tile (scheduled), rewrites the tile BLOBs,
        releases the tape segments, and detaches the object from the tape
        hierarchy — so it can later be re-archived (possibly with fresher
        access statistics).  Returns the number of tiles re-imported.
        """
        mdd = self.storage.collection(collection_name).get(object_name)
        entry = self.archived(object_name)
        all_tiles = sorted(mdd.tiles)
        rewrite = lambda: self.storage.rewrite_tiles(  # noqa: E731
            mdd, all_tiles, lambda tile: self._resolve_tile(mdd, tile)
        )
        self._query_unit(mdd, all_tiles, rewrite, str(mdd.domain))
        assert mdd.oid is not None
        self._detach_from_tape(entry)
        del self._archived[object_name]
        mdd.resolver = self.storage._make_resolver(mdd.oid)
        return len(all_tiles)

    # ------------------------------------------------------------------ hooks

    def _scale_hook(self, ref: MDDRef, factors):
        """Query-executor hook: answer scale() from a pyramid level.

        The level is disk-resident (materialised at archive time); serving
        it charges one disk read of the answer's bytes.
        """
        if not self.is_archived(ref.mdd.name):
            return None
        answer = self.pyramids.try_answer(ref, factors)
        if answer is not None:
            self.db.blobs.disk.read(
                int(answer.cells.nbytes), detail=f"pyramid {ref.mdd.name}"
            )
        return answer

    def _condenser_hook(self, name: str, ref: MDDRef):
        """Query-executor hook: try the precomputed catalog first; its
        unknown edge tiles are reduced inside one admission query."""
        if not self.is_archived(ref.mdd.name):
            return None
        region = str(ref.full_region())
        return self.precomputed.try_answer(
            name, ref, lambda mdd, tiles, reduce: self._query_unit(mdd, tiles, reduce, region)
        )

    def _materialize_ref(self, ref: MDDRef) -> MArray:
        """Query-executor hook: read a trim or section of an archived object
        as one admission query."""
        if not self.is_archived(ref.mdd.name):
            return ref.materialize()
        region = ref.full_region()
        cover = [t.tile_id for t in ref.mdd.tiles_for(region)]
        return self._query_unit(ref.mdd, cover, ref.materialize, str(region))

    def _frame_extension(self, _executor: QueryExecutor, args: List) -> MArray:
        """``frame(obj, "lo:hi,lo:hi; lo:hi,lo:hi")`` query function."""
        if len(args) != 2 or not isinstance(args[0], MDDRef) or not isinstance(args[1], str):
            raise HeavenError('frame() expects (object, "box; box; ...")')
        framed, _mask = self._framed(args[0].mdd, MultiBoxFrame.parse(args[1]))
        return framed

    # ------------------------------------------------------------------ statistics

    STATS_TABLE = "heaven_access_stats"

    def persist_access_statistics(self) -> int:
        """Write the collected access statistics into the DBMS catalog.

        eSTAR's adaptivity then survives sessions: a fresh HEAVEN instance
        over the same base DBMS restores the profile and clusters new
        archives accordingly.  Returns the number of objects persisted.
        """
        from ..dbms import Column, ColumnType

        if self.STATS_TABLE not in self.db.tables():
            self.db.create_table(
                self.STATS_TABLE,
                [
                    Column("object_name", ColumnType.TEXT, nullable=False),
                    Column("queries", ColumnType.INTEGER, nullable=False),
                    Column("bytes_sum", ColumnType.REAL, nullable=False),
                    Column("fractions", ColumnType.TEXT, nullable=False),
                ],
                primary_key="object_name",
            )
        self.db.delete_rows(self.STATS_TABLE, lambda _row: True)
        for object_name, stats in self.access_stats.items():
            self.db.insert(
                self.STATS_TABLE,
                {
                    "object_name": object_name,
                    "queries": stats.queries,
                    "bytes_sum": stats.bytes_sum,
                    "fractions": ",".join(str(f) for f in stats.fraction_sums),
                },
            )
        return len(self.access_stats)

    def restore_access_statistics(self) -> int:
        """Load persisted access statistics from the DBMS catalog."""
        if self.STATS_TABLE not in self.db.tables():
            return 0
        restored = 0
        for row in self.db.select(self.STATS_TABLE):
            fractions = [float(f) for f in row["fractions"].split(",") if f]
            stats = AccessStatistics(
                dimension=len(fractions),
                queries=row["queries"],
                fraction_sums=fractions,
                bytes_sum=row["bytes_sum"],
            )
            self.access_stats[row["object_name"]] = stats
            restored += 1
        return restored

    def _record_access(self, mdd: MDD, region: MInterval) -> None:
        stats = self.access_stats.get(mdd.name)
        if stats is None:
            stats = AccessStatistics(dimension=mdd.dimension)
            self.access_stats[mdd.name] = stats
        stats.record(region, mdd.domain, mdd.cell_type.size_bytes)

    # ------------------------------------------------------------------ reporting

    def assert_quiescent(self) -> None:
        """Raise :class:`HeavenError` unless the instance is at rest.

        Quiescence means no operation is in flight: every staging pin (disk
        segment or memory tile) has been released (a leaked pin would
        silently shrink the evictable cache forever), no parallel-staging
        timeline is still active on the clock, and neither cache tier holds
        more bytes than its capacity.  The simulation harness checks this
        between operations;
        it is also a useful sanity probe after any synchronous API call.
        """
        pinned = self.disk_cache.pinned_keys()
        if pinned:
            raise HeavenError(
                f"not quiescent: {len(pinned)} disk-cache key(s) still "
                f"pinned: {pinned[:5]}"
            )
        if self.memory_cache.pinned_tiles:
            raise HeavenError(
                f"not quiescent: {self.memory_cache.pinned_tiles} memory-cache "
                "tile(s) still pinned"
            )
        if self.clock.active_timeline is not None:
            raise HeavenError(
                "not quiescent: a parallel-staging timeline is still "
                "active on the clock"
            )
        if self.disk_cache.used_bytes > self.disk_cache.capacity_bytes:
            raise HeavenError(
                f"not quiescent: disk cache holds {self.disk_cache.used_bytes} "
                f"bytes > capacity {self.disk_cache.capacity_bytes}"
            )
        if self.memory_cache.used_bytes > self.memory_cache.capacity_bytes:
            raise HeavenError(
                f"not quiescent: memory cache holds "
                f"{self.memory_cache.used_bytes} bytes > capacity "
                f"{self.memory_cache.capacity_bytes}"
            )

    def snapshot(self) -> Dict[str, object]:
        """One-stop status snapshot for reports and examples."""
        library = self.library.stats()
        return {
            "virtual_seconds": self.clock.now,
            "archived_objects": sorted(self._archived),
            "library": library,
            "disk_cache": self.disk_cache.stats,
            "memory_cache": self.memory_cache.stats,
            "precomputed": self.precomputed.stats,
            "time_breakdown": self.clock.log.breakdown(),
        }
