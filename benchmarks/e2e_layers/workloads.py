"""The four workloads: set-up, closed-loop execution, oracle checks, counters.

Only ``repro``'s public API is used.  Every workload follows one
protocol: ``prepare()`` generates the inputs from the seed and builds
the system including warm-up ops (all of it is ``setup_s``), ``run()``
replays timed ops and returns a :class:`Measured`, ``counters()`` reads
the program's public statistics.
"""

from __future__ import annotations

import asyncio
import zlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import Heaven, HeavenConfig, MDD, MInterval, RegularTiling, ReproError
from repro.service import ServiceCluster
from repro.tertiary import DLT_7000, scaled_profile

import streams
from streams import CLIENTS, TENANTS, Scale, region_slices, region_text
from tracing import CURRENT_OP

COLLECTION = "bench"


@dataclass
class Measured:
    """What one replay of timed ops produced."""

    op_wall_s: List[float] = field(default_factory=list)
    op_virtual_s: List[float] = field(default_factory=list)
    #: bytes handed back to the client (ingest_update: inserted + updated)
    payload_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    verified: int = 0
    verify_s: float = 0.0
    #: wall seconds of the timed section, verification excluded
    section_wall_s: float = 0.0
    virtual_makespan_s: float = 0.0
    #: crc32 of the arrays an op returned, for the ops that were verified
    digests: Dict[int, int] = field(default_factory=dict)
    #: workload-specific exact counts (shards, retries, export reports ...)
    counts: Counter = field(default_factory=Counter)


def heaven_config(scale: Scale, disk_cache: int, memory_cache: int, pyramid=None) -> HeavenConfig:
    return HeavenConfig(
        compression="zlib",
        super_tile_bytes=scale.super_tile_bytes,
        min_super_tile_bytes=scale.super_tile_bytes // 2,
        tape_profile=scaled_profile(DLT_7000, scale.media_bytes),
        num_drives=2,
        retain_payload=True,
        precompute_aggregates=True,
        pyramid_factors=pyramid,
        disk_cache_bytes=disk_cache,
        memory_cache_bytes=memory_cache,
    )


def archive_objects(heaven: Heaven, collection: str, arrays: Dict[str, np.ndarray], tile: int) -> None:
    heaven.create_collection(collection)
    for name, cells in arrays.items():
        heaven.insert(collection, MDD.from_array(name, cells, tiling=RegularTiling((tile,) * cells.ndim)))
        heaven.archive(collection, name)
    # the archive was written long ago: reads start with every medium shelved
    heaven.library.unmount_all()


def heaven_counters(heavens: Sequence[Heaven]) -> Dict[str, float]:
    """Exact counts from public statistics, summed over *heavens*."""
    total: Counter = Counter()
    for heaven in heavens:
        library = heaven.library.stats()
        for key in ("exchanges", "bytes_read", "bytes_written", "time_exchanging_s",
                    "time_seeking_s", "time_transferring_s"):
            total[f"tape.{key}"] += getattr(library, key)
        disk, memory = heaven.disk_cache.stats, heaven.memory_cache.stats
        for key in ("lookups", "hits", "bytes_evicted", "pin_evictions_blocked"):
            total[f"disk.{key}"] += getattr(disk, key)
        for key in ("lookups", "hits", "evictions"):
            total[f"mem.{key}"] += getattr(memory, key)
        total["precomputed.lookups"] += heaven.precomputed.stats.lookups
        total["precomputed.answered"] += heaven.precomputed.stats.answered
        total["pyramid.answered"] += heaven.pyramids.stats.answered
        total["heaven.waves"] += heaven.staging_waves_admitted
        total["heaven.restages"] += heaven.restages
        total["heaven.segments_staged"] += heaven.segments_staged
        total["admission.sweeps"] += heaven.admission_sweeps
        total["admission.fusion_saved_bytes"] += heaven.admission_fusion_saved_bytes
    return total


def storage_footprint(heavens: Sequence[Heaven]) -> Dict[str, float]:
    """Media occupancy against the live archived user bytes, and frame kinds."""
    media = live = tiles = stored_frames = 0
    for heaven in heavens:
        media += sum(m.used_bytes for m in heaven.library.media_stats())
    # every node of a build-mode cluster archives the same objects: user
    # bytes count once, media bytes on every node
    heaven = heavens[0]
    for name in heaven.snapshot()["archived_objects"]:
        entry = heaven.archived(name)
        live += entry.mdd.size_bytes
        for tile_id, stored in (entry.stored_sizes or {}).items():
            tiles += 1
            stored_frames += stored == entry.mdd.tiles[tile_id].size_bytes + 1
    return {
        "stored_ratio": media / live if live else 0.0,
        "stored_frame_share": stored_frames / tiles if tiles else 0.0,
    }


def digest(arrays: Sequence[np.ndarray]) -> int:
    crc = 0
    for cells in arrays:
        crc = zlib.crc32(np.ascontiguousarray(cells).tobytes(), crc)
    return crc


class Workload:
    """Protocol of one workload; see the module docstring."""

    name = ""

    def __init__(self, seed: int, scale: Scale, seconds: float) -> None:
        self.seed, self.scale = seed, scale
        self.timed_ops = scale.timed_ops(self.name, seconds)
        self.warmup_ops = scale.warmup_ops
        self.ops: List[dict] = []
        self.oracle: Dict[str, np.ndarray] = {}
        self.heavens: List[Heaven] = []

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, ops: Sequence[dict], verify_every: int) -> Measured:
        raise NotImplementedError

    def timed(self, share: float = 1.0) -> List[dict]:
        """The timed ops (or their leading *share*), after the warm-up ops."""
        count = max(1, int(round(self.timed_ops * share)))
        return self.ops[self.warmup_ops : self.warmup_ops + count]

    def counters(self) -> Dict[str, float]:
        return heaven_counters(self.heavens)

    def footprint(self) -> Dict[str, float]:
        return storage_footprint(self.heavens)

    def stream_rows(self) -> List[dict]:
        """The op stream as JSON-ready rows (``--dump-stream``)."""
        return [dict(op, timed=op["op"] >= self.warmup_ops) for op in self.ops]


# -- archive_read -----------------------------------------------------------------------


class ArchiveRead(Workload):
    name = "archive_read"

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.oracle = streams.make_objects(rng, "r", self.scale.read_objects, self.scale.read_shape)
        self.ops = streams.read_stream(rng, self.scale, self.warmup_ops + self.timed_ops)

    def prepare(self) -> None:
        self.generate()
        scale = self.scale
        heaven = Heaven(
            heaven_config(scale, scale.read_disk_cache, scale.read_memory_cache),
            observability=False,
        )
        archive_objects(heaven, COLLECTION, self.oracle, scale.tile)
        self.heavens = [heaven]
        self.run(self.ops[: self.warmup_ops], verify_every=0)

    def run(self, ops: Sequence[dict], verify_every: int) -> Measured:
        heaven = self.heavens[0]
        out = Measured()
        clock_start = heaven.clock.now
        for op in ops:
            requests = [
                (COLLECTION, name, MInterval.of(*region)) for name, region in op["reads"]
            ]
            CURRENT_OP.set(op["op"])
            out.attempted += 1
            start = perf_counter()
            try:
                if op["kind"] == "read":
                    cells, report = heaven.read_with_report(*requests[0])
                    answers = [cells]
                else:
                    answers, report = heaven.read_many(requests)
            except ReproError:
                out.op_wall_s.append(perf_counter() - start)
                out.failed += 1
                continue
            out.op_wall_s.append(perf_counter() - start)
            out.op_virtual_s.append(report.virtual_seconds)
            out.payload_bytes += sum(int(cells.nbytes) for cells in answers)
            if verify_every and op["op"] % verify_every == 0:
                check_reads(self.oracle, op, answers, out)
        CURRENT_OP.set(-1)
        out.section_wall_s = sum(out.op_wall_s)
        out.virtual_makespan_s = heaven.clock.now - clock_start
        return out


def check_reads(oracle: Dict[str, np.ndarray], op: dict, answers: Sequence[np.ndarray], out: Measured) -> None:
    """Byte-compare one op's arrays with the oracle; count a mismatch as failed."""
    start = perf_counter()
    good = len(answers) == len(op["reads"]) and all(
        cells.dtype == np.float32
        and cells.shape == oracle[name][region_slices(region)].shape
        and cells.tobytes() == oracle[name][region_slices(region)].tobytes()
        for (name, region), cells in zip(op["reads"], answers)
    )
    out.verified += 1
    out.failed += not good
    out.digests[op["op"]] = digest(answers)
    out.verify_s += perf_counter() - start


# -- service_read -----------------------------------------------------------------------


class ServiceRead(ArchiveRead):
    name = "service_read"

    def prepare(self) -> None:
        self.generate()
        scale = self.scale
        # per-node caches are half of archive_read's: equal aggregate cache
        self.cluster = ServiceCluster.build(
            lambda: heaven_config(scale, scale.read_disk_cache // 2, scale.read_memory_cache // 2),
            lambda heaven: archive_objects(heaven, COLLECTION, self.oracle, scale.tile),
            nodes=2,
            objects=[(COLLECTION, name) for name in self.oracle],
        )
        for tenant in range(TENANTS):
            self.cluster.register_tenant(f"t{tenant}")  # no quota: never refused
        self.heavens = self.cluster.heavens
        #: each client's next arrival on the virtual timeline
        self.arrival_v = [0.0] * CLIENTS
        self.run(self.ops[: self.warmup_ops], verify_every=0)

    def run(self, ops: Sequence[dict], verify_every: int) -> Measured:
        out = Measured()
        sn = self.cluster.sn
        first_arrival = min(self.arrival_v)

        async def client(index: int) -> None:
            token = f"token-t{index % TENANTS}"
            for op in ops:
                if op["client"] != index:
                    continue
                CURRENT_OP.set(op["op"])
                arrival = self.arrival_v[index]
                out.attempted += 1
                start = perf_counter()
                reads = [
                    sn.read(token, COLLECTION, name, region_text(region), arrival_v=arrival)
                    for name, region in op["reads"]
                ]
                try:
                    if len(reads) == 1:
                        results = [await reads[0]]
                    else:
                        results = await asyncio.gather(*reads)
                except ReproError:
                    out.op_wall_s.append(perf_counter() - start)
                    out.failed += 1
                    continue
                out.op_wall_s.append(perf_counter() - start)
                out.op_virtual_s.append(max(r.latency_v for r in results))
                self.arrival_v[index] = max(r.completion_v for r in results)
                out.payload_bytes += sum(int(r.cells.nbytes) for r in results)
                out.counts["shards"] += sum(len(r.shards) for r in results)
                out.counts["retries"] += sum(r.retries for r in results)
                out.failed += any(r.degraded for r in results)
                if verify_every and op["op"] % verify_every == 0:
                    # blocks the one thread all clients share; the time is
                    # taken out of the section below, like everywhere else
                    check_reads(self.oracle, op, [r.cells for r in results], out)

        async def body() -> float:
            start = perf_counter()
            await asyncio.gather(*(client(index) for index in range(CLIENTS)))
            return perf_counter() - start

        out.section_wall_s = self.cluster.run(body) - out.verify_s
        out.virtual_makespan_s = max(self.arrival_v) - first_arrival
        return out

    def counters(self) -> Dict[str, float]:
        total = super().counters()
        nodes = self.cluster.nodes.values()
        total["node.batches"] = sum(node.batches for node in nodes)
        total["node.requests"] = sum(node.requests_served + node.requests_failed for node in nodes)
        total["node.wire_bytes"] = sum(node.wire_bytes for node in nodes)
        return total


# -- query_hot ----------------------------------------------------------------------------


class QueryHot(Workload):
    name = "query_hot"

    def __init__(self, seed: int, scale: Scale, seconds: float) -> None:
        super().__init__(seed, scale, seconds)
        # one whole cycle must be staged before the timed section
        self.warmup_ops = max(scale.warmup_ops, len(streams.QUERY_CYCLE))

    def prepare(self) -> None:
        scale = self.scale
        rng = np.random.default_rng(self.seed)
        self.oracle = {
            "a": streams.make_array(rng, scale.query_shape, quantised=True),
            "b": streams.make_array(rng, scale.query_shape, quantised=False),
            "p": streams.make_array(rng, scale.query_shape, quantised=True),
        }
        self.ops = streams.query_stream(rng, scale, self.warmup_ops + self.timed_ops)
        heaven = Heaven(
            heaven_config(scale, scale.query_disk_cache, scale.query_memory_cache, pyramid=(2, 4)),
            observability=False,
        )
        # only "p" gets pyramid levels: the factors apply at archive time
        archive_objects(heaven, "qp", {"p": self.oracle["p"]}, scale.tile)
        heaven.config.pyramid_factors = None
        archive_objects(heaven, "qa", {"a": self.oracle["a"]}, scale.tile)
        archive_objects(heaven, "qb", {"b": self.oracle["b"]}, scale.tile)
        self.heavens = [heaven]
        self.before_warmup = self.counters()
        self.warmup = self.run(self.ops[: self.warmup_ops], verify_every=0)

    def run(self, ops: Sequence[dict], verify_every: int) -> Measured:
        heaven = self.heavens[0]
        out = Measured()
        clock_start = heaven.clock.now
        for op in ops:
            CURRENT_OP.set(op["op"])
            out.attempted += 1
            before = heaven.clock.now
            start = perf_counter()
            try:
                value = heaven.query(op["text"])[0].value
            except ReproError:
                out.op_wall_s.append(perf_counter() - start)
                out.failed += 1
                continue
            out.op_wall_s.append(perf_counter() - start)
            out.op_virtual_s.append(heaven.clock.now - before)
            cells = getattr(value, "cells", None)
            out.payload_bytes += int(cells.nbytes) if cells is not None else 8
            if op["kind"] == "frame":
                out.counts["frame_ops"] += 1
                out.counts["hull_tiles"] += op["hull_tiles"]
            if verify_every and op["op"] % verify_every == 0:
                check = perf_counter()
                out.verified += 1
                out.failed += not streams.query_matches(
                    op, self.oracle, cells if cells is not None else value
                )
                out.verify_s += perf_counter() - check
        CURRENT_OP.set(-1)
        out.section_wall_s = sum(out.op_wall_s)
        out.virtual_makespan_s = heaven.clock.now - clock_start
        return out


# -- ingest_update ------------------------------------------------------------------------


class IngestUpdate(Workload):
    name = "ingest_update"
    #: ops of one round of :func:`streams.ingest_stream`, deletes included
    OPS_PER_ROUND = 11.67

    def prepare(self) -> None:
        scale = self.scale
        rng = np.random.default_rng(self.seed)
        self.oracle = streams.make_objects(rng, "b", scale.base_objects, scale.read_shape)
        rounds = max(2, int(round(self.timed_ops / self.OPS_PER_ROUND)) + 1)
        self.ops, self.payloads = streams.ingest_stream(rng, scale, rounds)
        # the first round is the warm-up; the timed section is the rest
        self.warmup_ops = next(
            index for index, op in enumerate(self.ops) if op["kind"] == "ingest" and index > 0
        )
        self.timed_ops = len(self.ops) - self.warmup_ops
        heaven = Heaven(
            heaven_config(scale, scale.read_disk_cache, scale.read_memory_cache),
            observability=False,
        )
        archive_objects(heaven, COLLECTION, self.oracle, scale.tile)
        self.heavens = [heaven]
        self.run(self.ops[: self.warmup_ops], verify_every=0)

    def run(self, ops: Sequence[dict], verify_every: int) -> Measured:
        heaven, oracle, tile = self.heavens[0], self.oracle, self.scale.tile
        out = Measured()
        clock_start = heaven.clock.now
        for op in ops:
            kind, name = op["kind"], op["object"]
            payload = self.payloads.get(op["op"])
            region = read_region = None
            if kind == "update":
                region, read_region = MInterval.of(*op["region"]), MInterval.of(*op["read_region"])
            answer: Optional[np.ndarray] = None
            CURRENT_OP.set(op["op"])
            out.attempted += 1
            before = heaven.clock.now
            start = perf_counter()
            try:
                if kind == "ingest":
                    heaven.insert(COLLECTION, MDD.from_array(
                        name, payload, tiling=RegularTiling((tile,) * payload.ndim)))
                    report = heaven.archive(COLLECTION, name)
                elif kind == "update":
                    heaven.update(COLLECTION, name, region, payload)
                    answer = heaven.read(COLLECTION, name, read_region)
                elif kind == "delete":
                    heaven.delete(COLLECTION, name)
                else:
                    heaven.reimport(COLLECTION, name)
            except ReproError:
                out.op_wall_s.append(perf_counter() - start)
                out.failed += 1
                continue
            out.op_wall_s.append(perf_counter() - start)
            out.op_virtual_s.append(heaven.clock.now - before)
            check = perf_counter()
            if kind == "ingest":
                oracle[name] = payload
                out.payload_bytes += int(payload.nbytes)
                out.counts["export_virtual_s"] += report.virtual_seconds
                out.counts["export_bytes"] += report.bytes_written
            elif kind == "update":
                oracle[name][region_slices(op["region"])] = payload
                out.payload_bytes += int(payload.nbytes)
                # read-after-write is checked after every update, sampled or not
                out.verified += 1
                out.failed += answer.tobytes() != oracle[name][region_slices(op["read_region"])].tobytes()
            elif kind == "delete":
                del oracle[name]
            else:
                out.verified += 1
                whole = heaven.read(COLLECTION, name, heaven.collection(COLLECTION).get(name).domain)
                out.failed += whole.tobytes() != oracle[name].tobytes()
            out.verify_s += perf_counter() - check
        CURRENT_OP.set(-1)
        out.section_wall_s = sum(out.op_wall_s)
        out.virtual_makespan_s = heaven.clock.now - clock_start
        return out


WORKLOADS = {cls.name: cls for cls in (ArchiveRead, ServiceRead, QueryHot, IngestUpdate)}
