"""Configuration of a HEAVEN instance.

Also the canonical import site of :class:`RetryPolicy` — the recovery
policy consumed by the tape library, the HSM façade and HEAVEN itself
(it lives in :mod:`repro.faults` so the tertiary layer can use it without
an import cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..faults import FaultPlan, RetryPolicy
from ..tertiary.profiles import DLT_7000, GB, MB, TapeProfile

__all__ = ["HeavenConfig", "RetryPolicy", "FaultPlan"]


@dataclass
class HeavenConfig:
    """Tuning knobs of the hierarchical storage environment.

    Super-tiles are always partitioned by eSTAR (access-aware axis order,
    actual-size packing), and the database, disk cache and HSM staging
    disk all run on the :data:`~repro.tertiary.profiles.DISK_ARRAY` model.

    Attributes:
        tape_profile: drive/media technology of the tertiary layer.
        num_drives: read/write stations in the library.  With more than
            one, every admission wave stages through the
            :class:`~repro.core.scheduler.ParallelExecutor` (Kapitel
            3.7.3): the serial loop's mounts, seeks and reads, overlapped
            across the drives on one virtual timeline each.
        attachment: how HEAVEN is coupled to tertiary storage
            (Kapitel 3.1).  ``"drive"`` talks to the library directly
            (segment-level access, partial super-tile runs possible);
            ``"hsm"`` goes through a file-level HSM, whose granularity is
            the whole file: every staged super-tile is read completely and
            double-hops through the HSM's own staging disk.
        super_tile_bytes: target super-tile size; ``None`` lets eSTAR derive
            it from the drive cost model and access statistics
            (Kapitel 3.2.4 — automatische Anpassung der Super-Kachel-Größe).
        min_super_tile_bytes: lower clamp for the automatic size (the
            upper clamp is :func:`~repro.core.estar.estar_partition`'s
            default, 1 GiB).
        intra_clustering: order tiles inside a super-tile by expected access
            order so partial reads cover a short contiguous run.
        inter_clustering: place consecutive super-tiles contiguously on as
            few media as possible (off = round-robin scatter baseline).
        scheduling: reorder tape requests (group by medium, elevator sweep)
            instead of FIFO execution.
        partial_super_tile_reads: read only the contiguous run of needed
            tiles inside a super-tile segment instead of the whole segment.
        disk_cache_bytes: capacity of the super-tile disk cache.
        disk_cache_policy: eviction policy name (``lru``, ``fifo``, ``lfu``,
            ``size``, ``gds``).
        memory_cache_bytes: capacity of the in-memory tile cache.
        prefetch: staging prefetch policy (``none``, ``sequential``).
        precompute_aggregates: record per-tile aggregates at export time and
            answer condenser queries from them when possible.
        pyramid_factors: isotropic zoom factors materialised as scaling
            pyramids at archive time (``None`` disables); ``scale()`` calls
            over archived objects are answered from the matching level
            without touching tape.
        compression: per-tile codec for archived data (``"none"`` or
            ``"zlib"``: the compressed codec, whatever its backend — zstd
            level 1 (double-fast, two blocks) over the tile's byte planes,
            one plane per byte of the cell type, through the system
            libzstd, else level-1 DEFLATE through ``zlib``, or the cells verbatim when that saves less
            than 1/16); compressed tiles stream off tape in
            proportionally less time, at ~0.6 estimated ratio in size-only
            mode.
        retain_payload: keep real bytes (end-to-end fidelity); switch off
            for very large virtual experiments.  Decided once, at ingest:
            ``Heaven`` hands it to its ``ArrayStorage``, which writes
            size-only tile BLOBs when it is off.  Every layer below stores
            what it is handed, so tape segments, cached runs and updates of
            a size-only object stay size-only (compressed sizes then come
            from the codec's ratio estimate).
        fault_plan: seeded fault-injection plan wired into the tape
            library's robot and drives (``None`` — the default — injects
            nothing and leaves every simulated cost byte-identical).
        retry_policy: bounded exponential-backoff recovery for faulted
            mounts and reads; only engaged when a fault fires.
    """

    tape_profile: TapeProfile = DLT_7000
    num_drives: int = 1
    attachment: str = "drive"
    super_tile_bytes: Optional[int] = 128 * MB
    min_super_tile_bytes: int = 8 * MB
    intra_clustering: bool = True
    inter_clustering: bool = True
    scheduling: bool = True
    partial_super_tile_reads: bool = True
    disk_cache_bytes: int = 4 * GB
    disk_cache_policy: str = "lru"
    memory_cache_bytes: int = 256 * MB
    prefetch: str = "none"
    precompute_aggregates: bool = True
    pyramid_factors: Optional[tuple] = None
    compression: str = "none"
    retain_payload: bool = True
    fault_plan: Optional[FaultPlan] = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.attachment not in ("drive", "hsm"):
            raise ValueError(f"unknown attachment mode {self.attachment!r}")
        if self.super_tile_bytes is not None and self.super_tile_bytes <= 0:
            raise ValueError("super_tile_bytes must be positive or None")
        if self.prefetch not in ("none", "sequential"):
            raise ValueError(f"unknown prefetch policy {self.prefetch!r}")
        if self.pyramid_factors is not None and any(
            int(f) < 2 for f in self.pyramid_factors
        ):
            raise ValueError(f"pyramid factors must be >= 2: {self.pyramid_factors}")
        if self.num_drives < 1:
            raise ValueError("num_drives must be >= 1")
