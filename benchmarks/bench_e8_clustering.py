"""E8 — Intra-/Inter-Super-Tile-Clustering (Kapitel 3.3.2).

Compares archive layouts on the same query mix:

* **scattered** — super-tiles round-robined over several media
  (generation-order archive baseline): many exchanges per query;
* **clustered** — HEAVEN's contiguous placement: at most one exchange;
* **clustered + intra** — additionally orders tiles inside each super-tile
  by the access profile, shrinking the byte runs partial reads stream.

Expected shape: clustering removes nearly all media exchanges; intra
clustering cuts bytes moved again on thin-slice queries.
"""

import numpy as np
import pytest

from repro.bench import ResultTable, speedup
from repro.core import AccessStatistics, ScatterPlacement
from repro.tertiary import GB, MB
from repro.workloads import slice_region

from _rigs import heaven_rig

OBJECT_MB = 256
SUPER_TILE_MB = 16
QUERIES = 4


def run_variant(intra: bool, scatter: bool, stats_seed: bool):
    heaven, mdd = heaven_rig(
        object_mb=OBJECT_MB,
        tile_kb=512,
        dims=3,
        super_tile_bytes=SUPER_TILE_MB * MB,
        disk_cache_bytes=2 * GB,
        intra_clustering=intra,
        num_drives=1,
    )
    if stats_seed:
        # Seed the access statistics eSTAR and intra clustering consume:
        # queries span axes 0/1 fully and slice axis 2 thinly.
        stats = AccessStatistics(dimension=3)
        for _ in range(4):
            stats.record(
                slice_region(mdd.domain, axis=2, position=10, thickness=8),
                mdd.domain,
                mdd.cell_type.size_bytes,
            )
        heaven.access_stats["obj"] = stats
    placement = ScatterPlacement(spread=6) if scatter else None
    heaven.archive("bench", "obj", placement=placement)
    heaven.library.unmount_all()

    total_time = 0.0
    total_tape = 0
    exchanges_before = heaven.library.stats().exchanges
    extent = mdd.domain[2].extent
    for i in range(QUERIES):
        position = (i * extent) // (QUERIES + 1)
        region = slice_region(mdd.domain, axis=2, position=position, thickness=4)
        _cells, report = heaven.read_with_report("bench", "obj", region)
        total_time += report.virtual_seconds
        total_tape += report.bytes_from_tape
    exchanges = heaven.library.stats().exchanges - exchanges_before
    return total_time / QUERIES, total_tape / QUERIES, exchanges


def run_all():
    return {
        "scattered": run_variant(intra=False, scatter=True, stats_seed=False),
        "clustered": run_variant(intra=False, scatter=False, stats_seed=False),
        "clustered+intra": run_variant(intra=True, scatter=False, stats_seed=True),
    }


def build_table(results) -> ResultTable:
    table = ResultTable(
        f"E8  Placement/clustering comparison ({OBJECT_MB} MB object, "
        "thin z-slice queries)",
        ["layout", "mean query [s]", "mean tape bytes [MB]", "media exchanges"],
    )
    for label, (mean_time, mean_tape, exchanges) in results.items():
        table.add(label, mean_time, mean_tape / MB, exchanges)
    table.note("scattered = round-robin over 6 media (generation-order archive)")
    return table


def test_e8_clustering(benchmark, report_table):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = build_table(results)
    report_table("e8_clustering", table)

    scattered = results["scattered"]
    clustered = results["clustered"]
    intra = results["clustered+intra"]
    # Shape: clustering eliminates most exchanges and wins on time.
    assert clustered[2] <= scattered[2] / 3
    assert clustered[0] < scattered[0]
    # Intra clustering cuts the bytes streamed for thin slices further.
    assert intra[1] < clustered[1]
    assert intra[0] <= clustered[0] * 1.05
