"""File-level hierarchical storage manager (HSM) façade.

Simulates the commercial systems the paper discusses (FileTek StorHouse,
the DKRZ/CERA DXUL coupling): a *file* is the smallest unit of access, so a
request for any part of a file stages the **whole file** from tape into a
disk staging area first.  HEAVEN's central claim is that this granularity
wastes 90-99 % of the moved bytes for typical array subsetting — the HSM is
therefore the baseline of the retrieval experiments (E5) and also one of the
two attachment modes of HEAVEN itself (Kapitel 3.1.1).
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..errors import FaultError, HSMError, RetryExhaustedError
from ..faults import RetryPolicy
from .clock import SimClock
from .disk import DiskDevice
from .library import TapeLibrary
from .profiles import DiskProfile, DISK_ARRAY

logger = logging.getLogger("repro.tertiary.hsm")


@dataclass
class HSMFile:
    """Catalog entry of one archived file."""

    name: str
    size: int
    medium_id: str


@dataclass
class HSMStats:
    """Staging behaviour counters."""

    stage_requests: int = 0
    stage_hits: int = 0
    stage_misses: int = 0
    bytes_staged_from_tape: int = 0
    bytes_served: int = 0
    evictions: int = 0
    stage_faults: int = 0
    stage_retries: int = 0


class HSMSystem:
    """Whole-file migrate/stage/purge manager over a tape library.

    Args:
        library: the automated tertiary-storage system holding migrated files.
        staging_profile: disk used as the online staging area.
        staging_capacity_bytes: cap of the staging area; least-recently-used
            files are purged when a new file does not fit.
        faults: fault plan consulted by the staging hook (defaults to the
            library's plan, so one seeded plan drives the whole stack).
        retry: recovery policy for transient staging faults (defaults to
            the library's policy).
    """

    def __init__(
        self,
        library: TapeLibrary,
        staging_profile: DiskProfile = DISK_ARRAY,
        staging_capacity_bytes: Optional[int] = None,
        faults=None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.library = library
        self.clock: SimClock = library.clock
        self.faults = faults if faults is not None else library.faults
        self.retry = retry if retry is not None else library.retry
        self.disk = DiskDevice("hsm-staging", staging_profile, self.clock)
        self.staging_capacity = (
            staging_capacity_bytes
            if staging_capacity_bytes is not None
            else staging_profile.capacity_bytes
        )
        self._catalog: Dict[str, HSMFile] = {}
        #: staged files in LRU order (oldest first)
        self._staged: "OrderedDict[str, int]" = OrderedDict()
        self._payloads: Dict[str, bytes] = {}
        self.stats = HSMStats()

    # -- archive lifecycle -------------------------------------------------

    def archive_file(self, name: str, size: int, payload: Optional[bytes] = None) -> HSMFile:
        """Migrate a file to tape; returns its catalog entry.

        The file passes through the staging disk (one write) and is streamed
        to the allocated medium, mirroring a migration run.
        """
        if name in self._catalog:
            raise HSMError(f"file {name!r} already archived")
        if payload is not None and len(payload) != size:
            raise HSMError(f"payload of {len(payload)} B != declared size {size} B")
        self.disk.write(size, detail=f"migrate {name}")
        medium_id, _segment = self.library.write_segment(
            f"hsm/{name}", size, payload=payload
        )
        entry = HSMFile(name=name, size=size, medium_id=medium_id)
        self._catalog[name] = entry
        return entry

    def files(self) -> Dict[str, HSMFile]:
        return dict(self._catalog)

    def is_staged(self, name: str) -> bool:
        return name in self._staged

    # -- staging -------------------------------------------------------------

    def stage_file(self, name: str) -> HSMFile:
        """Ensure the whole file is on the staging disk; returns its entry.

        A staged file costs one disk access; an unstaged file costs a full
        tape mount + seek + stream of *all* its bytes plus a staging-disk
        write — the file-granularity penalty HEAVEN removes.
        """
        entry = self._require(name)
        self.stats.stage_requests += 1
        if name in self._staged:
            self._staged.move_to_end(name)
            self.stats.stage_hits += 1
            logger.debug("stage hit for %s (%d B already on disk)", name, entry.size)
            return entry
        self.stats.stage_misses += 1
        logger.info(
            "stage miss for %s: staging all %d B from medium %s",
            name, entry.size, entry.medium_id,
        )
        self._make_room(entry.size)
        payload = self._staged_read(name, entry)
        self._land(name, entry, payload)
        return entry

    def _land(self, name: str, entry: HSMFile, payload: Optional[bytes]) -> None:
        """Write one streamed file to the staging disk and catalog it."""
        self.disk.write(entry.size, detail=f"stage {name}")
        self.disk.reserve(entry.size)
        self._staged[name] = entry.size
        if payload is not None:
            self._payloads[name] = payload
        self.stats.bytes_staged_from_tape += entry.size

    def read_file(
        self, name: str, offset: int = 0, length: Optional[int] = None
    ) -> Optional[bytes]:
        """Read *length* bytes at *offset* — stages the whole file first.

        This is the paper's point: even a 1 % subset request forces a 100 %
        stage.  Returns the requested bytes when payloads are retained.
        """
        entry = self.stage_file(name)
        if length is None:
            length = entry.size - offset
        if offset < 0 or offset + length > entry.size:
            raise HSMError(
                f"read [{offset}, {offset + length}) outside file {name!r} "
                f"of {entry.size} B"
            )
        self.disk.read(length, detail=f"read {name}")
        self.stats.bytes_served += length
        payload = self._payloads.get(name)
        if payload is None:
            return None
        return payload[offset : offset + length]

    def _staged_read(self, name: str, entry: HSMFile) -> Optional[bytes]:
        """Tape read of one file, retrying transient staging faults."""
        return self._retry_stage(
            name,
            lambda: self.library.read_segment(
                f"hsm/{name}", medium_id=entry.medium_id
            ),
        )

    def _retry_stage(self, name: str, action: Callable[[], Optional[bytes]]):
        """Run *action* behind the HSM fault gate, retrying transient faults.

        The ``hsm`` fault hook models request-level failures of the HSM
        itself (lost staging requests, staging-disk hiccups); faults below
        it — mounts, media — are already retried inside the library and
        surface here only as :class:`RetryExhaustedError`, which is final.
        """
        attempt = 0
        while True:
            try:
                self.faults.on_hsm_stage(name)
                return action()
            except RetryExhaustedError:
                raise
            except FaultError as fault:
                self.stats.stage_faults += 1
                attempt += 1
                if attempt >= self.retry.max_attempts:
                    raise RetryExhaustedError(
                        f"staging of {name!r} failed after {attempt} attempts: "
                        f"{fault}"
                    ) from fault
                self.stats.stage_retries += 1
                delay = self.retry.delay(attempt)
                if delay > 0:
                    self.clock.charge(delay, "backoff", "hsm-staging", detail=name)
                logger.warning(
                    "staging fault for %s (attempt %d/%d): %s",
                    name, attempt, self.retry.max_attempts, fault,
                )

    # -- internals -----------------------------------------------------------

    def _require(self, name: str) -> HSMFile:
        try:
            return self._catalog[name]
        except KeyError:
            raise HSMError(f"file {name!r} not archived") from None

    def _make_room(self, nbytes: int) -> None:
        if nbytes > self.staging_capacity:
            raise HSMError(
                f"file of {nbytes} B exceeds staging capacity "
                f"{self.staging_capacity} B"
            )
        while self.staging_used + nbytes > self.staging_capacity:
            victim, size = self._staged.popitem(last=False)
            self._payloads.pop(victim, None)
            self.disk.release(size)
            self.stats.evictions += 1
            logger.debug(
                "evicted %s (%d B) from staging to make room for %d B",
                victim, size, nbytes,
            )

    @property
    def staging_used(self) -> int:
        return sum(self._staged.values())
