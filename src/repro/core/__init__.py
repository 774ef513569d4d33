"""HEAVEN core: the paper's contribution.

Super-tiles (STAR/eSTAR), intra-/inter-super-tile clustering, coupled vs.
decoupled TCT export, query scheduling, the caching hierarchy, object
framing, precomputed operation results, and the :class:`Heaven` façade that
fuses the array DBMS with the tertiary-storage system.
"""

from .admission import (
    AdmissionController,
    FusionAudit,
    MultiQueryReport,
    QuerySpec,
    RetrievalReport,
)
from .cache import (
    CacheStats,
    DiskCache,
    EvictionPolicy,
    FIFOPolicy,
    GDSPolicy,
    LFUPolicy,
    LRUPolicy,
    MemoryTileCache,
    SizePolicy,
    make_policy,
    policy_names,
)
from .clustering import (
    ClusteredPlacement,
    Placement,
    PlacementPolicy,
    ScatterPlacement,
)
from .compression import Codec, NoneCodec, ZlibCodec, codec_names, make_codec
from .config import FaultPlan, HeavenConfig, RetryPolicy
from .estar import (
    AccessStatistics,
    estar_partition,
    intra_cluster_order,
    optimal_super_tile_bytes,
)
from .export import (
    EXPORT_SEGMENTS_TABLE,
    CoupledExporter,
    ExportReport,
    TCTExporter,
    recover_incomplete_exports,
)
from .framing import (
    BoxFrame,
    Frame,
    HalfSpaceFrame,
    MaskFrame,
    MultiBoxFrame,
    read_frame,
    tiles_in_frame,
)
from .heaven import ArchivedObject, Heaven
from .precomputed import (
    DECOMPOSABLE,
    PrecomputedCatalog,
    PrecomputedStats,
    TileAggregate,
)
from .pyramid import PyramidCatalog, PyramidLevel, PyramidStats
from .scheduler import (
    DriveShare,
    ElevatorScheduler,
    FIFOScheduler,
    ParallelExecutor,
    ParallelReport,
    Scheduler,
    TapeRequest,
    attribute_request_bytes,
    split_shared_bytes,
)
from .super_tile import (
    SuperTile,
    grid_block_shape,
    star_partition,
    tiles_to_super_tiles,
)

__all__ = [
    "AccessStatistics",
    "AdmissionController",
    "ArchivedObject",
    "BoxFrame",
    "CacheStats",
    "ClusteredPlacement",
    "Codec",
    "CoupledExporter",
    "DECOMPOSABLE",
    "DiskCache",
    "EXPORT_SEGMENTS_TABLE",
    "ElevatorScheduler",
    "EvictionPolicy",
    "ExportReport",
    "FIFOPolicy",
    "FIFOScheduler",
    "FaultPlan",
    "Frame",
    "FusionAudit",
    "MultiQueryReport",
    "QuerySpec",
    "GDSPolicy",
    "HalfSpaceFrame",
    "Heaven",
    "HeavenConfig",
    "LFUPolicy",
    "LRUPolicy",
    "MaskFrame",
    "MemoryTileCache",
    "MultiBoxFrame",
    "NoneCodec",
    "ZlibCodec",
    "Placement",
    "PlacementPolicy",
    "PrecomputedCatalog",
    "PrecomputedStats",
    "PyramidCatalog",
    "PyramidLevel",
    "PyramidStats",
    "ParallelExecutor",
    "ParallelReport",
    "DriveShare",
    "RetrievalReport",
    "RetryPolicy",
    "ScatterPlacement",
    "Scheduler",
    "SizePolicy",
    "SuperTile",
    "TCTExporter",
    "TapeRequest",
    "TileAggregate",
    "attribute_request_bytes",
    "split_shared_bytes",
    "estar_partition",
    "codec_names",
    "grid_block_shape",
    "intra_cluster_order",
    "make_codec",
    "make_policy",
    "optimal_super_tile_bytes",
    "policy_names",
    "read_frame",
    "recover_incomplete_exports",
    "star_partition",
    "tiles_in_frame",
    "tiles_to_super_tiles",
]
