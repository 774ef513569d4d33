"""A4 (ablation) — per-tile compression of archived data.

Tape transfer time, not capacity, is the scarce resource, so hardware-rate
compression speeds up both export and retrieval in proportion to the
achieved ratio.  Real climate payloads (spatially coherent doubles) are
compressed with the ``zlib`` codec; series: archive bytes/time and
retrieval bytes/time with compression off and on.  A second table prices
the tile frame itself: the same climate tiles framed as plain level-6
DEFLATE over the raw cells (the codec's frame before byte planes), as the
codec's shuffled level-1 frame, and as shuffled level 6.  The codec's
frames are those of the host's encoder (``compression.DEFLATER``); the
committed table is a libdeflate host's.
"""

import zlib

import numpy as np
import pytest

from repro.bench import ResultTable, speedup
from repro.core import Heaven, HeavenConfig, ZlibCodec
from repro.tertiary import GB, MB
from repro.arrays import QuantizedSource
from repro.workloads import ClimateGrid, climate_object, subcube

from _rigs import BENCH_PROFILE

GRID = ClimateGrid(longitudes=240, latitudes=120, heights=16)  # 3.5 MB real
QUERIES = 4
SELECTIVITY = 0.05


def run_variant(compression: str):
    heaven = Heaven(
        HeavenConfig(
            tape_profile=BENCH_PROFILE,
            compression=compression,
            super_tile_bytes=1 * MB,
            disk_cache_bytes=1 * GB,
            memory_cache_bytes=1,  # isolate the tape/disk path
        )
    )
    heaven.create_collection("col")
    obj = climate_object("obj", GRID, seed=6)
    # Instruments deliver finite precision; quantised values are what make
    # archived measurement data compressible.
    obj.source = QuantizedSource(obj.source, step=0.25)
    heaven.insert("col", obj)
    start = heaven.clock.now
    heaven.archive("col", "obj")
    archive_seconds = heaven.clock.now - start
    archived_bytes = sum(m.used_bytes for m in heaven.library.media())
    heaven.library.unmount_all()

    rng = np.random.default_rng(2)
    query_seconds = 0.0
    tape_bytes = 0
    for _ in range(QUERIES):
        # Cold caches per query.
        for key in list(heaven.disk_cache.keys()):
            heaven.disk_cache.invalidate(key)
        region = subcube(obj.domain, SELECTIVITY, rng)
        _cells, report = heaven.read_with_report("col", "obj", region)
        query_seconds += report.virtual_seconds
        tape_bytes += report.bytes_from_tape
    return {
        "archive_seconds": archive_seconds,
        "archived_bytes": archived_bytes,
        "query_seconds": query_seconds / QUERIES,
        "tape_bytes": tape_bytes / QUERIES,
        "object_bytes": obj.size_bytes,
    }


def run_all():
    return run_variant("none"), run_variant("zlib")


def frame_size(raw: bytes, packed: bytes, header: int) -> int:
    """Bytes of a frame around *packed*, or of the stored fallback."""
    if len(packed) >= len(raw) - (len(raw) >> 4):
        return 1 + len(raw)
    return header + len(packed)


def frame_variants():
    """Total frame bytes of the climate tiles under each frame variant."""
    obj = climate_object("obj", GRID, seed=6)
    obj.source = QuantizedSource(obj.source, step=0.25)
    itemsize = obj.cell_type.dtype.itemsize
    codec = ZlibCodec()
    totals = {"raw": 0, "plain-6": 0, "shuffled-1": 0, "shuffled-6": 0}
    for tile in obj.tiles.values():
        raw = obj.source.region(tile.domain, obj.cell_type).tobytes()
        planes = np.frombuffer(raw, np.uint8).reshape(-1, itemsize).T.tobytes()
        totals["raw"] += len(raw)
        totals["plain-6"] += frame_size(raw, zlib.compress(raw, 6), 1)
        totals["shuffled-1"] += len(codec.compress(raw, itemsize))
        totals["shuffled-6"] += frame_size(raw, zlib.compress(planes, 6), 2)
    return totals


def build_frame_table(totals) -> ResultTable:
    table = ResultTable(
        "A4b  Tile frame variants (same climate tiles)",
        ["frame", "bytes [MB]", "ratio"],
    )
    rows = [
        ("raw cells", "raw"),
        ("DEFLATE-6 on raw cells", "plain-6"),
        ("byte planes + DEFLATE-1 (codec)", "shuffled-1"),
        ("byte planes + DEFLATE-6", "shuffled-6"),
    ]
    for label, key in rows:
        table.add(label, totals[key] / MB, totals[key] / totals["raw"])
    table.note("a tile DEFLATE shrinks by less than 1/16 is stored verbatim")
    return table


def build_table(plain, packed) -> ResultTable:
    table = ResultTable(
        "A4  Per-tile compression (real climate payloads, zlib)",
        ["metric", "uncompressed", "zlib", "factor"],
    )
    ratio = packed["archived_bytes"] / plain["archived_bytes"]
    table.add(
        "archived volume [MB]",
        plain["archived_bytes"] / MB,
        packed["archived_bytes"] / MB,
        1.0 / ratio,
    )
    table.add(
        "archive time [s]",
        plain["archive_seconds"],
        packed["archive_seconds"],
        speedup(plain["archive_seconds"], packed["archive_seconds"]),
    )
    table.add(
        "mean query tape [MB]",
        plain["tape_bytes"] / MB,
        packed["tape_bytes"] / MB,
        speedup(plain["tape_bytes"], packed["tape_bytes"]),
    )
    table.add(
        "mean query time [s]",
        plain["query_seconds"],
        packed["query_seconds"],
        speedup(plain["query_seconds"], packed["query_seconds"]),
    )
    table.note("codec modelled at drive line speed (hardware compression)")
    return table


def test_a4_compression(benchmark, report_table):
    plain, packed = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = build_table(plain, packed)
    totals = frame_variants()
    report_table("a4_compression", table, build_frame_table(totals))

    # Shape: compression shrinks the archive and every transfer with it.
    assert packed["archived_bytes"] < 0.8 * plain["archived_bytes"]
    assert packed["tape_bytes"] < plain["tape_bytes"]
    assert packed["query_seconds"] <= plain["query_seconds"] * 1.02
    # The codec's shuffled level-1 frame archives no more than plain level 6.
    assert totals["shuffled-1"] <= totals["plain-6"]
    # Fidelity guard: compressed archive returns identical cells (spot).
    # (covered in depth by tests/core/test_compression.py)
