"""Names, units, directions and bounds of everything ``e2e_layers`` reports.

``/BENCHMARK.json`` is this table serialised (``python3 run.py --write-spec``
rewrites it; the smoke test checks the two agree), and ``compare.py``
reads its bounds and *exact* flags from here.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

RUN_SECONDS = 10

WORKLOADS: Dict[str, str] = {
    "archive_read": (
        "direct Heaven reads, working set 4x the disk cache: staging, scheduler, "
        "tape and cache do most of the work; every returned byte is decoded once"
    ),
    "service_read": (
        "exactly archive_read's op stream through the 2-node SN/DN tier with 4 "
        "clients and equal aggregate cache: the difference is the service tier"
    ),
    "query_hot": (
        "RasQL over a hot set that fits the disk cache but not the tile cache: "
        "zero tape traffic, so parser, executor, decode and scatter do all the work"
    ),
    "ingest_update": (
        "insert+archive, update with read-after-write, delete and reimport: the "
        "write side (encode, tape append, dead space, invalidation, blob store)"
    ),
}


class EndToEnd(NamedTuple):
    """One gated metric; ``wall_*`` and ``setup_s`` are scaled to the quiet
    host's speed by ``run.reference_s`` (README, "Host noise")."""

    name: str
    unit: str
    better: str
    #: share of the parent's median the metric may worsen (``BENCHMARK.json``);
    #: set from the spread over ten seeds, see README "Bounds"
    bound: float
    #: deterministic given seed and ``--seconds``: ``compare.py`` uses ``==``
    exact: bool
    definition: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("wall_mb_s", "MiB/s", "higher", 0.25, False,
             "returned (ingest_update: inserted + updated) bytes / wall seconds of the "
             "timed section, verification excluded"),
    EndToEnd("wall_mid_ms", "ms", "lower", 0.25, False,
             "mean per-op wall latency of the middle half of the ops (interquartile mean), "
             "timed around the public call the client waits on"),
    EndToEnd("wall_tail_ms", "ms", "lower", 0.25, False,
             "mean wall latency of the slowest 5 % of ops"),
    EndToEnd("virtual_makespan_s", "s", "lower", 0.25, True,
             "virtual-clock span of the timed section"),
    EndToEnd("virtual_p95_s", "s", "lower", 0.25, True,
             "95th percentile per-op virtual latency"),
    EndToEnd("tape_amplification", "ratio", "lower", 0.25, True,
             "tape bytes read / returned bytes (ingest_update: tape bytes written, dead "
             "segments included, / user bytes; query_hot: warm-up staging included)"),
    EndToEnd("exchanges_per_100_ops", "count", "lower", 0.25, True,
             "media loads per 100 ops (query_hot: warm-up loads included)"),
    EndToEnd("setup_s", "s", "lower", 0.25, False,
             "median of the set-ups of one run: array generation, insert, archive, "
             "cluster build, warm-up ops"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.20, False,
             "ru_maxrss of the workload's process when it ends"),
    EndToEnd("stored_ratio", "ratio", "lower", 0.25, True,
             "bytes occupied on media (dead segments included) / live archived user bytes"),
]


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``trace`` = from the traced run's segments, ``stats`` = exact count
    #: read from the program's public statistics
    source: str
    definition: str


PER_LAYER: List[PerLayer] = [
    PerLayer("service.sn.self_ms_per_op", "ms", "lower", "trace", "ServiceNode.read self time"),
    PerLayer("service.sn.shards_per_op", "count", "lower", "stats", "data nodes contributing per op"),
    PerLayer("service.sn.tiles_per_op", "count", "lower", "trace", "HashRing.node_for calls (one per tile) per op"),
    PerLayer("service.sn.retries", "count", "lower", "stats", "per-shard retries, total"),
    PerLayer("service.auth.self_us_per_op", "us", "lower", "trace", "authenticate + charge + settle"),
    PerLayer("service.hashring.node_for_us_per_tile", "us", "lower", "trace", "HashRing.node_for per call"),
    PerLayer("service.node.wait_ms_p50", "ms", "lower", "trace",
             "median DataNode.call elapsed minus its batch's serve + wire segments"),
    PerLayer("service.node.batch_size_mean", "count", "higher", "stats", "sub-reads per drained batch"),
    PerLayer("service.node.batches", "count", "lower", "stats", "batches served, total"),
    PerLayer("core.units.encode_ms_per_op", "ms", "lower", "trace", "SubRead*.encode"),
    PerLayer("core.units.decode_ms_per_op", "ms", "lower", "trace", "SubRead*.decode"),
    PerLayer("core.units.wire_bytes_per_returned_byte", "ratio", "lower", "stats", "DataNode.wire_bytes / returned bytes"),
    PerLayer("service.assemble.self_ms_per_op", "ms", "lower", "trace", "ShadowObject.assemble self time"),
    PerLayer("service.assemble.mb_s", "MiB/s", "higher", "trace", "assembled bytes / inclusive assemble time"),
    PerLayer("core.admission.self_ms_per_op", "ms", "lower", "trace", "AdmissionController.run/run_units minus children"),
    PerLayer("core.admission.sweeps", "count", "lower", "stats", "fused sweeps dispatched"),
    PerLayer("core.admission.fusion_saved_bytes", "bytes", "higher", "stats", "tape bytes cross-query fusion avoided"),
    PerLayer("core.heaven.collect_needs_ms_per_op", "ms", "lower", "trace", "Heaven.collect_needs self time"),
    PerLayer("core.heaven.plan_requests_ms_per_op", "ms", "lower", "trace", "Heaven.plan_requests self time"),
    PerLayer("core.heaven.execute_staging_self_ms_per_op", "ms", "lower", "trace",
             "Heaven.execute_staging self time (waves, landing, draining)"),
    PerLayer("core.heaven.read_self_ms_per_op", "ms", "lower", "trace",
             "self time of Heaven's entry points: private glue no deeper wrapper covers"),
    PerLayer("core.heaven.waves", "count", "lower", "stats", "staging waves admitted"),
    PerLayer("core.heaven.restages", "count", "lower", "stats", "per-tile restage fallbacks"),
    PerLayer("core.heaven.super_tiles_staged", "count", "lower", "stats", "segment runs streamed from tape"),
    PerLayer("core.scheduler.order_ms_per_op", "ms", "lower", "trace", "ElevatorScheduler.order"),
    PerLayer("core.scheduler.requests_per_op", "count", "lower", "trace", "tape requests ordered per op"),
    PerLayer("tertiary.self_ms_per_op", "ms", "lower", "trace", "host time in TapeLibrary.mount/read_extent*/write_segment"),
    PerLayer("tertiary.virtual_exchange_s", "s", "lower", "stats", "robot time exchanging media"),
    PerLayer("tertiary.virtual_seek_s", "s", "lower", "stats", "drive time seeking"),
    PerLayer("tertiary.virtual_transfer_s", "s", "lower", "stats", "drive time transferring"),
    PerLayer("tertiary.bytes_read", "bytes", "lower", "stats", "tape bytes read"),
    PerLayer("tertiary.bytes_written", "bytes", "lower", "stats", "tape bytes written"),
    PerLayer("core.cache.self_ms_per_op", "ms", "lower", "trace", "DiskCache.* and MemoryTileCache.get/put"),
    PerLayer("core.cache.disk_hit_ratio", "ratio", "higher", "stats", "disk cache hits / lookups"),
    PerLayer("core.cache.disk_bytes_evicted", "bytes", "lower", "stats", "disk cache bytes evicted"),
    PerLayer("core.cache.mem_hit_ratio", "ratio", "higher", "stats", "tile cache hits / lookups"),
    PerLayer("core.cache.mem_evictions", "count", "lower", "stats", "tile cache evictions"),
    PerLayer("core.cache.pin_evictions_blocked", "count", "lower", "stats", "victims skipped because pinned"),
    PerLayer("core.compression.decode_ms_per_op", "ms", "lower", "trace", "ZlibCodec.decompress_view/into"),
    PerLayer("core.compression.decode_mb_s", "MiB/s", "higher", "trace", "decoded bytes / decode time"),
    PerLayer("core.compression.encode_ms_per_op", "ms", "lower", "trace", "ZlibCodec.compress"),
    PerLayer("core.compression.encode_mb_s", "MiB/s", "higher", "trace", "raw bytes / compress time"),
    PerLayer("core.compression.stored_frame_share", "ratio", "lower", "stats",
             "archived tiles held as stored (incompressible) frames"),
    PerLayer("arrays.mdd.read_self_ms_per_op", "ms", "lower", "trace", "MDD.read self time: the scatter"),
    PerLayer("arrays.mdd.materialize_self_ms_per_op", "ms", "lower", "trace",
             "MDD.materialize_tile self time: the resolver's glue around cache and codec calls"),
    PerLayer("arrays.mdd.assemble_mb_s", "MiB/s", "higher", "trace", "bytes out of MDD.read / its self time"),
    PerLayer("arrays.mdd.tiles_for_us_per_op", "us", "lower", "trace", "MDD.tiles_for"),
    PerLayer("arrays.mdd.tiles_per_op", "count", "lower", "trace", "MDD.materialize_tile calls per op"),
    PerLayer("arrays.query.parse_us_per_op", "us", "lower", "trace", "parse"),
    PerLayer("arrays.query.execute_self_ms_per_op", "ms", "lower", "trace", "QueryExecutor.execute self time"),
    PerLayer("core.precomputed.answered_share", "ratio", "higher", "stats", "catalog answers / lookups"),
    PerLayer("core.framing.tiles_skipped_share", "ratio", "higher", "trace",
             "1 - tiles_in_frame results / tiles in the frames' hulls"),
    PerLayer("core.pyramid.hits", "count", "higher", "stats", "scale() calls answered from a level"),
    PerLayer("core.export.self_ms_per_mb", "ms", "lower", "trace", "TCTExporter.export self time per MiB written"),
    PerLayer("core.estar.partition_ms_per_object", "ms", "lower", "trace", "estar/star_partition per call"),
    PerLayer("dbms.blob.self_ms_per_op", "ms", "lower", "trace", "BlobStore.put/get"),
    PerLayer("core.export.virtual_s_per_gb", "s", "lower", "stats", "export virtual seconds per GiB written"),
    PerLayer("bench.unattributed_pct", "%", "lower", "trace", "timed thread time under no wrapped callable"),
    PerLayer("bench.trace_overhead_pct", "%", "lower", "trace", "traced vs untraced wall on the same prefix"),
    PerLayer("bench.verify_s", "s", "lower", "trace", "oracle checking, excluded from every timer"),
    PerLayer("service.wall_tax", "ratio", "lower", "trace",
             "archive_read wall_mb_s / service_read wall_mb_s on the same prefix"),
]


def benchmark_json() -> dict:
    """The contract file's content, derived from the tables above."""
    return {
        "command": ["python3", "benchmarks/e2e_layers/run.py"],
        "paths": ["benchmarks/e2e_layers"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def write_benchmark_json() -> None:
    with open(BENCHMARK_JSON, "w") as handle:
        json.dump(benchmark_json(), handle, indent=2)
        handle.write("\n")
