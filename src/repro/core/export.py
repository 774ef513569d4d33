"""Export pipelines: coupled (RasDaMan-style) vs. decoupled TCT (Kapitel 3.3/4.3).

*Coupled export* is the classic path: the DBMS reads one tile BLOB at a
time from the base RDBMS and hands it to the tape drive, which commits it
as its own segment.  Every tile pays a random disk read plus the drive's
stop/start penalty, and the tape never streams.

*Decoupled TCT export* (Tertiary-storage Communication Thread) assembles
whole super-tiles in a memory buffer and streams each as one segment.  The
assembly of super-tile ``i+1`` overlaps the tape write of super-tile ``i``
(the TCT runs decoupled from query processing), so disk time hides behind
tape time except for pipeline stalls.

The TCT exporter journals every segment write in a write-ahead log (the
base DBMS's, when given): a BEGIN/INSERT.../COMMIT sequence under a
dedicated (negative) transaction id per :meth:`TCTExporter.journal`
transaction.  ``TCTExporter.export`` is one such transaction, and so is
``Heaven.update``'s re-export of its super-tiles.  A fault then rolls the
half-written segments back immediately, and a crash leaves a BEGIN
without COMMIT that :func:`recover_incomplete_exports` cleans up on the
next start.
"""

from __future__ import annotations

import itertools
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence

from ..arrays.mdd import MDD
from ..arrays.storage import ArrayStorage
from ..dbms.wal import LogKind, WriteAheadLog
from ..errors import ExportError
from ..obs.trace import null_tracer
from ..tertiary.clock import Stopwatch
from ..tertiary.library import TapeLibrary
from .clustering import Placement
from .compression import Buffer

logger = logging.getLogger("repro.core.export")

#: WAL marker table journalling segments of in-flight TCT exports
EXPORT_SEGMENTS_TABLE = "heaven_export_segments"


def recover_incomplete_exports(wal: WriteAheadLog, library: TapeLibrary) -> int:
    """Remove tape segments of exports that never committed nor aborted.

    Scans the WAL for export transactions (negative txn ids on the
    :data:`EXPORT_SEGMENTS_TABLE` marker table) whose BEGIN has no matching
    COMMIT/ABORT — a crash mid-export or mid-update — and rolls each back:
    every journalled segment still in the library is deleted and the
    missing ABORT appended, so a second recovery pass is a no-op.  Returns
    the number of segments removed.
    """
    finished = {
        r.txn_id
        for r in wal.records()
        if r.kind in (LogKind.COMMIT, LogKind.ABORT)
    }
    removed = 0
    for txn_id in sorted(
        {
            r.txn_id
            for r in wal.records()
            if r.txn_id < 0 and r.kind is LogKind.BEGIN
        }
        - finished
    ):
        count = _roll_back(wal, library, txn_id)
        logger.info("recovery: removed %d orphan segment(s) of export txn %d", count, txn_id)
        removed += count
    return removed


def _roll_back(wal: WriteAheadLog, library: TapeLibrary, txn_id: int) -> int:
    """Delete the segments journalled under *txn_id* that are still in the
    library and close the transaction with ABORT; returns how many went.

    The one place that deletes already-written segments on failure.
    """
    removed = 0
    for record in wal.records_for(txn_id):
        if record.kind is LogKind.INSERT and record.after is not None:
            segment = record.after.get("segment")
            if segment and library.has_segment(segment):
                library.delete_segment(segment)
                removed += 1
    wal.append(txn_id, LogKind.ABORT)
    return removed


@dataclass
class ExportReport:
    """Outcome and cost breakdown of one export run."""

    object_name: str
    mode: str
    segments_written: int = 0
    bytes_written: int = 0
    tiles_exported: int = 0
    media_used: int = 0
    virtual_seconds: float = 0.0
    stall_seconds: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput_mb_s(self) -> float:
        if self.virtual_seconds <= 0:
            return 0.0
        return self.bytes_written / self.virtual_seconds / (1024 * 1024)


def _segment_breakdown(library: TapeLibrary, since: int) -> Dict[str, float]:
    """Per-kind virtual seconds of events appended after cursor *since*."""
    return library.clock.log.breakdown(start=since)


class CoupledExporter:
    """Tile-by-tile export through the base DBMS (the E3 baseline)."""

    mode = "coupled"

    def __init__(
        self, storage: ArrayStorage, library: TapeLibrary, tracer=None
    ) -> None:
        self.storage = storage
        self.library = library
        self.tracer = tracer if tracer is not None else null_tracer

    def export(self, mdd: MDD) -> ExportReport:
        """Write every tile as its own tape segment, in generation order.

        Returns:
            Report with the full cost breakdown; segments are named
            ``{oid}/t{tile_id}``.
        """
        if mdd.oid is None:
            raise ExportError(f"object {mdd.name!r} is not persisted; insert it first")
        clock = self.library.clock
        watch = Stopwatch(clock)
        log_start = clock.log.cursor()
        report = ExportReport(object_name=mdd.name, mode=self.mode)
        media_before = {m.medium_id for m in self.library.media() if m.used_bytes}
        with self.tracer.span("export.coupled", object=mdd.name):
            for tile_id in sorted(mdd.tiles):
                tile = mdd.tiles[tile_id]
                blob_oid = self.storage.blob_oid_of(mdd.oid, tile_id)
                payload = self.storage.db.blobs.get(blob_oid)  # random disk read
                self.library.write_segment(
                    f"{mdd.oid}/t{tile_id}", tile.size_bytes, payload=payload
                )
                report.segments_written += 1
                report.bytes_written += tile.size_bytes
                report.tiles_exported += 1
        report.virtual_seconds = watch.elapsed
        report.breakdown = _segment_breakdown(self.library, log_start)
        media_after = {m.medium_id for m in self.library.media() if m.used_bytes}
        report.media_used = len(media_after - media_before) or len(media_after)
        logger.info(
            "coupled export of %s: %d segments, %d B in %.1f virtual s",
            mdd.name, report.segments_written, report.bytes_written,
            report.virtual_seconds,
        )
        return report


class TCTExporter:
    """Decoupled super-tile streaming export (the E4 HEAVEN path).

    Every segment write runs inside a :meth:`journal` transaction of the
    write-ahead log (negative txn id, marker table
    :data:`EXPORT_SEGMENTS_TABLE`): an exception rolls its half-written
    segments back before re-raising, and a crash leaves enough in the log
    for :func:`recover_incomplete_exports`.  Pass the base DBMS's *wal* to
    make the journal recoverable; without one the exporter keeps a private
    log, so rollback still works.
    """

    mode = "tct"

    def __init__(
        self,
        storage: ArrayStorage,
        library: TapeLibrary,
        tracer=None,
        wal: Optional[WriteAheadLog] = None,
    ) -> None:
        self.storage = storage
        self.library = library
        self.tracer = tracer if tracer is not None else null_tracer
        self.wal = wal if wal is not None else WriteAheadLog()
        #: export txn ids are negative so they can never collide with the
        #: base DBMS's own (positive) transaction counter
        self._txn_ids = itertools.count(1)

    @contextmanager
    def journal(self, object_name: str) -> Iterator[Callable[..., str]]:
        """One journalled transaction of segment writes for *object_name*.

        Appends BEGIN and yields a writer ``write(name, nbytes, payload,
        medium_id=None) -> medium_id`` that streams one segment and journals
        it (one INSERT each).  COMMIT is appended when the ``with`` body
        finishes, so a caller that switches a catalog to the new segments
        does it inside the body.  An exception rolls every journalled
        segment back (ABORT) and re-raises; a crash (anything that is not
        an :class:`Exception`) leaves the transaction open for
        :func:`recover_incomplete_exports`.
        """
        txn_id = -next(self._txn_ids)
        self.wal.append(txn_id, LogKind.BEGIN)

        def write(
            name: str,
            nbytes: int,
            payload: Optional[bytes],
            medium_id: Optional[str] = None,
        ) -> str:
            medium_id, _segment = self.library.write_segment(
                name, nbytes, payload=payload, medium_id=medium_id
            )
            self.wal.append(
                txn_id,
                LogKind.INSERT,
                table=EXPORT_SEGMENTS_TABLE,
                after={"segment": name, "medium_id": medium_id, "object": object_name},
            )
            return medium_id

        try:
            yield write
        except Exception:
            logger.warning(
                "export of %s aborted: rolled back %d half-written segment(s)",
                object_name, _roll_back(self.wal, self.library, txn_id),
            )
            raise
        self.wal.append(txn_id, LogKind.COMMIT)

    def export(
        self,
        mdd: MDD,
        placements: Sequence[Placement],
        stored_sizes: Optional[Dict[int, int]] = None,
        frames: Optional[Mapping[int, Optional[Buffer]]] = None,
    ) -> ExportReport:
        """Stream each super-tile as one segment per its placement.

        Assembly of the next super-tile overlaps the tape write of the
        current one (the decoupling): only assembly time exceeding the
        previous write is charged, as a pipeline stall.

        Args:
            mdd: the persisted object whose tiles are being exported.
            placements: write order and media targets (from a
                :class:`~repro.core.clustering.PlacementPolicy`).
            stored_sizes: per-tile on-tape sizes (the caller must already
                have set each super-tile's ``size_bytes`` to the matching
                sum); None = logical sizes.
            frames: per-tile encoded bytes, already built by the caller
                (one encode per tile); None = the raw tile BLOBs.  A tile
                without bytes (None) makes its segment size-only.

        Side effects: fills in each super-tile's ``segment_name`` and
        ``tile_extents``; the library's directory records the medium.
        """
        if mdd.oid is None:
            raise ExportError(f"object {mdd.name!r} is not persisted; insert it first")
        clock = self.library.clock
        watch = Stopwatch(clock)
        log_start = clock.log.cursor()
        report = ExportReport(object_name=mdd.name, mode=self.mode)
        media_before = {m.medium_id for m in self.library.media() if m.used_bytes}
        blobs = self.storage.db.blobs
        if frames is None:
            # The raw tile BLOBs, read with uncharged peeks: the charged
            # assembly cost is modelled below; reading through the resolver
            # would count every byte twice.
            frames = {
                t: blobs.peek(self.storage.blob_oid_of(mdd.oid, t)) for t in mdd.tiles
            }

        previous_write_seconds = 0.0
        with self.journal(mdd.name) as write, self.tracer.span(
            "export.tct", object=mdd.name
        ) as export_span:
            for position, placement in enumerate(placements):
                super_tile = placement.super_tile
                if stored_sizes is not None:
                    sizes = {t: stored_sizes[t] for t in super_tile.tile_ids}
                else:
                    sizes = {t: mdd.tiles[t].size_bytes for t in super_tile.tile_ids}
                super_tile.assign_extents(sizes)

                # --- assembly: N random BLOB reads into the staging buffer --
                # (reads are of the *logical* tiles; encoding costs no virtual
                # time, as in a drive that compresses in hardware)
                assembly_seconds = sum(
                    blobs.disk.profile.io_time(mdd.tiles[t].size_bytes)
                    for t in super_tile.tile_ids
                )
                if position == 0:
                    clock.charge(
                        assembly_seconds,
                        "disk-read",
                        blobs.disk.name,
                        detail=f"assemble st{super_tile.index}",
                        nbytes=super_tile.size_bytes,
                    )
                else:
                    stall = max(0.0, assembly_seconds - previous_write_seconds)
                    if stall > 0:
                        clock.charge(
                            stall,
                            "pipeline-stall",
                            blobs.disk.name,
                            detail=f"assemble st{super_tile.index}",
                        )
                        logger.debug(
                            "pipeline stall of %.3f virtual s assembling st%d "
                            "(assembly %.3f s > previous write %.3f s)",
                            stall, super_tile.index,
                            assembly_seconds, previous_write_seconds,
                        )
                    report.stall_seconds += stall

                # --- one streamed segment write ------------------------------
                write_watch = Stopwatch(clock)
                segment_name = f"{mdd.oid}/st{super_tile.index}"
                with self.tracer.span(
                    "export.segment",
                    segment=segment_name,
                    tiles=super_tile.tile_count,
                    bytes=super_tile.size_bytes,
                ):
                    medium_id = write(
                        segment_name,
                        super_tile.size_bytes,
                        join_frames(frames, super_tile.tile_ids),
                        medium_id=placement.medium_id,
                    )
                previous_write_seconds = write_watch.elapsed
                super_tile.segment_name = segment_name
                logger.debug(
                    "streamed %s (%d tiles, %d B) to medium %s in %.3f virtual s",
                    segment_name, super_tile.tile_count, super_tile.size_bytes,
                    medium_id, previous_write_seconds,
                )
                report.segments_written += 1
                report.bytes_written += super_tile.size_bytes
                report.tiles_exported += super_tile.tile_count
            export_span.set(
                segments=report.segments_written,
                stall_seconds=round(report.stall_seconds, 6),
            )

        report.virtual_seconds = watch.elapsed
        report.breakdown = _segment_breakdown(self.library, log_start)
        media_after = {m.medium_id for m in self.library.media() if m.used_bytes}
        report.media_used = len(media_after - media_before) or len(media_after)
        logger.info(
            "tct export of %s: %d segments, %d B in %.1f virtual s "
            "(%.1f s pipeline stalls)",
            mdd.name, report.segments_written, report.bytes_written,
            report.virtual_seconds, report.stall_seconds,
        )
        return report


def join_frames(
    frames: Mapping[int, Optional[Buffer]], tile_ids: Sequence[int]
) -> Optional[bytes]:
    """Payload of one segment: the frames of *tile_ids* back to back, or
    None (a size-only segment) when any of them has no bytes."""
    parts = [frames[t] for t in tile_ids]
    if any(part is None for part in parts):
        return None
    return b"".join(parts)
