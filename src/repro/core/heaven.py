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
  (Kapitel 3.5), delegates into :mod:`.rewrite`.

Queries never mention storage: an archived object answers exactly like a
disk-resident one, only the simulated clock knows the difference.
Every staging — reads, frames, RasQL trims, condenser edges, the tile loads
of ``update`` and ``reimport`` — is one admission query (:mod:`.admission`);
the staging pass, the tile resolver and the pins live in :mod:`.staging`,
the write order and the frame builder in :mod:`.rewrite`, and this class
holds the state they work on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..arrays.mdd import MDD, Collection
from ..arrays.minterval import MInterval
from ..arrays.operations import MArray
from ..arrays.query.executor import MDDRef, MutationHooks, QueryExecutor, QueryResult
from ..arrays.storage import ArrayStorage
from ..dbms.engine import Database
from ..errors import DomainError, HeavenError
from ..obs.instruments import HeavenInstruments
from ..obs.observability import Observability
from ..tertiary.clock import SimClock
from ..tertiary.disk import DiskDevice
from ..tertiary.library import TapeLibrary
from ..tertiary.profiles import DISK_ARRAY
from . import rewrite, staging
from .admission import AdmissionController, RetrievalReport, _Unit
from .cache import DiskCache, MemoryTileCache, make_policy
from .clustering import ClusteredPlacement, PlacementPolicy
from .compression import Codec, make_codec
from .config import HeavenConfig
from .estar import AccessStatistics, estar_partition, intra_cluster_order
from .export import ExportReport, TCTExporter
from .framing import Frame, MultiBoxFrame, read_frame as _read_frame, tiles_in_frame
from .precomputed import PrecomputedCatalog
from .pyramid import PyramidCatalog
from .scheduler import ElevatorScheduler, FIFOScheduler, Scheduler, TapeRequest
from .staging import StagingTicket, _SegmentNeed
from .super_tile import SuperTile, star_partition, tiles_to_super_tiles
from .units import ObjectDescriptor, SubReadRequest, SubReadResponse

# star_partition stays importable here: benchmarks/e2e_layers/tracing.py
# wraps it by this module path.
__all__ = ["ArchivedObject", "Heaven", "star_partition"]


@dataclass
class ArchivedObject:
    """Catalog entry of one object migrated to tertiary storage: durable
    facts only (a segment's medium is the library's, its staged run the
    disk cache's, the object's collection the storage catalog's)."""

    mdd: MDD
    super_tiles: List[SuperTile]
    tile_to_st: Dict[int, SuperTile]
    disk_copy: bool = True
    #: monotonic update counter feeding re-exported segment names (``.vN``)
    version: int = 0

    @property
    def stored_sizes(self) -> Dict[int, int]:
        """On-tape size of each tile: the length of its extent."""
        return {
            tile_id: length
            for super_tile in self.super_tiles
            for tile_id, (_offset, length) in super_tile.tile_extents.items()
        }

    def super_tile_of(self, tile_id: int) -> SuperTile:
        try:
            return self.tile_to_st[tile_id]
        except KeyError:
            raise HeavenError(
                f"tile {tile_id} of {self.mdd.name!r} has no super-tile"
            ) from None


class Heaven:
    """Hierarchical storage and archive environment for array DBMSs."""

    def __init__(
        self,
        config: Optional[HeavenConfig] = None,
        observability: Union[None, bool, Observability] = None,
    ) -> None:
        self.config = config if config is not None else HeavenConfig()
        self.clock = SimClock()
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
    ) -> ExportReport:
        """Migrate an object to tertiary storage.

        Pipeline: partition into super-tiles (eSTAR, fed by collected
        access statistics), order tiles inside each super-tile (intra
        clustering), build every tile's frame (:func:`.rewrite.frames`;
        each super-tile is sized on its on-tape bytes), plan media
        placement (*placement*, by default inter clustering, or a baseline
        such as :class:`~repro.core.clustering.ScatterPlacement`), stream
        via the decoupled TCT exporter, register precomputed aggregates,
        and optionally release the disk copy (*keep_disk_copy* keeps the
        tile BLOBs on secondary storage: dual residence).
        """
        mdd = self.storage.collection(collection_name).get(object_name)
        if mdd.oid is None:
            raise HeavenError(f"object {object_name!r} must be inserted before archive")
        if object_name in self._archived:
            raise HeavenError(f"object {object_name!r} is already archived")

        stats = self.access_stats.get(object_name)
        super_tiles = estar_partition(
            mdd,
            self.config.tape_profile,
            stats=stats,
            target_bytes=self.config.super_tile_bytes,
            min_bytes=self.config.min_super_tile_bytes,
        )

        if self.config.intra_clustering:
            for super_tile in super_tiles:
                super_tile.tile_ids = intra_cluster_order(super_tile, mdd, stats)

        # Each tile's frame, encoded from its BLOB (an uncharged peek, as in
        # the exporter's assembly); placement sizes media on these on-tape
        # bytes, not on the logical ones.
        stored_sizes, frames = rewrite.frames(
            self,
            mdd,
            {
                tile_id: self.db.blobs.peek(self.storage.blob_oid_of(mdd.oid, tile_id))
                for tile_id in mdd.tiles
            },
            kept={},
        )
        for super_tile in super_tiles:
            super_tile.size_bytes = sum(stored_sizes[t] for t in super_tile.tile_ids)
        plan = (placement or ClusteredPlacement()).plan(super_tiles, self.library)

        if self.config.precompute_aggregates and mdd.cell_type.dtype.fields is None:
            self.precomputed.register_object(mdd)
        if self.config.pyramid_factors and mdd.cell_type.dtype.fields is None:
            # Materialise zoom levels while the tiles are still on disk.
            self.pyramids.build(mdd, self.config.pyramid_factors)

        try:
            with self.tracer.span(
                "heaven.archive", object=object_name, super_tiles=len(super_tiles)
            ):
                report = self.exporter.export(
                    mdd, plan, stored_sizes=stored_sizes, frames=frames
                )
        except Exception:
            # The exporter rolled the written segments back: the
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
            super_tiles=super_tiles,
            tile_to_st=tiles_to_super_tiles(super_tiles),
        )
        self._archived[object_name] = entry
        self.super_tiles_built += len(super_tiles)
        mdd.resolver = partial(staging.resolve_tile, self)
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
        self.storage.drop_collection(name)

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
        if not mdd.domain.contains(region):
            raise DomainError(f"read region {region} outside object domain {mdd.domain}")
        if tile_ids is None:
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
            (cells,), report = AdmissionController(self).run_query([unit], label)
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
            return AdmissionController(self).run_query(units, label)

    def serve_sub_reads(
        self, requests: Sequence[SubReadRequest]
    ) -> List[SubReadResponse]:
        """:meth:`AdmissionController.run_units`'s responses, under the name
        the service benchmark's layer table (``benchmarks/e2e_layers``)
        traces."""
        return AdmissionController(self).run_units(requests)[0]

    def _query_unit(
        self, mdd: MDD, cover: Sequence[int], answer: Callable[[], Any], label: str
    ) -> Any:
        """Stage *cover* of *mdd* and return ``answer()``: one admission
        query of one unit, reported as ``(mdd.name, label)``."""
        unit = _Unit(mdd, list(cover), answer)
        (result,), _report = AdmissionController(self).run_query([unit], (mdd.name, label))
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
        """Routable metadata of one object for the SN/DN service tier.

        A service node routes tiles by :meth:`ObjectDescriptor.shard_key`:
        archived tiles by the medium their super-tile segment lives on (so
        a medium is mounted by one data node only, and a super-tile's tape
        run is never split), disk-resident tiles by a synthetic per-tile key.
        """
        mdd = self.storage.collection(collection_name).get(object_name)
        entry = self._archived.get(object_name)
        tile_media: Dict[int, str] = {}
        if entry is not None:
            for tile_id, super_tile in entry.tile_to_st.items():
                if super_tile.segment_name is not None:
                    tile_media[tile_id] = self.library.locate(
                        super_tile.segment_name
                    )
        return ObjectDescriptor(
            collection=collection_name,
            name=object_name,
            domain=mdd.domain,
            cell_type=mdd.cell_type,
            tiling=mdd.tiling,
            tile_media=tile_media,
            archived=entry is not None,
        )

    # ------------------------------------------------------------------ staging
    #
    # Delegates into :mod:`.staging`, kept on the class because the e2e
    # benchmark's layer table (``benchmarks/e2e_layers/tracing.py``) wraps
    # them here; the staging pass calls them through ``heaven.``.

    def collect_needs(self, pairs, tile_pins) -> Dict[str, _SegmentNeed]:
        return staging.collect_needs(self, pairs, tile_pins)

    def plan_requests(self, needs, ticket: StagingTicket) -> List[TapeRequest]:
        return staging.plan_requests(self, needs, ticket)

    def execute_staging(self, requests, needs, ticket: StagingTicket) -> None:
        staging.execute_staging(self, requests, needs, ticket)

    # ------------------------------------------------------------------ lifecycle
    #
    # Delegates into :mod:`.rewrite`; the e2e layer table wraps them here.

    def delete(self, collection_name: str, object_name: str) -> None:
        """Delete an object everywhere: caches, tape segments, catalogs."""
        rewrite.delete(self, collection_name, object_name)

    def update(self, collection_name: str, object_name: str, region: MInterval, cells) -> int:
        """Update a region; returns the count of re-exported super-tiles."""
        return rewrite.update(self, collection_name, object_name, region, cells)

    def reimport(self, collection_name: str, object_name: str) -> int:
        """Bring an archived object back to disk; returns its tile count."""
        return rewrite.reimport(self, collection_name, object_name)

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
        for _rid, row in self.db.table(self.STATS_TABLE).scan():
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
        """Raise :class:`HeavenError` unless no operation is in flight."""
        staging.assert_quiescent(self)

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
