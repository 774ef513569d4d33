"""E7 — Super-tile size sweep (Kapitel 3.2.3/3.2.5).

Mean retrieval time of a fixed query mix as a function of super-tile size.
Expected shape: a U-curve — small super-tiles pay one tape positioning per
piece, huge super-tiles drag useless bytes — with eSTAR's computed optimum
S* landing near the measured minimum.
"""

import numpy as np
import pytest

from repro.bench import ResultTable, sparkline
from repro.core import optimal_super_tile_bytes
from repro.tertiary import DISK_ARRAY, GB, MB
from repro.workloads import subcube

from _rigs import BENCH_PROFILE, heaven_rig

OBJECT_MB = 256
SELECTIVITY = 0.03
SIZES_MB = [1, 4, 16, 64, 256]
QUERIES = 6


def run_sweep():
    rng_regions = [
        subcube(
            heaven_rig(object_mb=OBJECT_MB, tile_kb=512, dims=3)[1].domain,
            SELECTIVITY,
            np.random.default_rng(100 + i),
        )
        for i in range(QUERIES)
    ]
    rows = []
    for size_mb in SIZES_MB:
        heaven, mdd = heaven_rig(
            object_mb=OBJECT_MB,
            tile_kb=512,
            dims=3,
            super_tile_bytes=size_mb * MB,
            disk_cache_bytes=2 * GB,
            # Whole super-tiles are the unit of tape access here: the sweep
            # isolates the classic seek-amortisation vs useless-bytes
            # tradeoff that sets the super-tile size (Kapitel 3.2.5).
            partial_super_tile_reads=False,
        )
        heaven.archive("bench", "obj")
        heaven.library.unmount_all()  # cold drive per query mix
        total_time = 0.0
        total_tape = 0
        for region in rng_regions:
            heaven.disk_cache = _fresh_cache(heaven)  # cold cache per query
            heaven.memory_cache.invalidate_object("obj")
            _cells, report = heaven.read_with_report("bench", "obj", region)
            total_time += report.virtual_seconds
            total_tape += report.bytes_from_tape
        rows.append((size_mb, total_time / QUERIES, total_tape / QUERIES))
    expected_request = SELECTIVITY * OBJECT_MB * MB
    s_star = optimal_super_tile_bytes(BENCH_PROFILE, expected_request, 1 * MB, 1 * GB)
    return rows, s_star


def _fresh_cache(heaven):
    from repro.core.cache import DiskCache, make_policy

    return DiskCache(
        heaven.config.disk_cache_bytes,
        make_policy(heaven.config.disk_cache_policy),
        DISK_ARRAY,
        heaven.clock,
    )


def build_table(rows, s_star) -> ResultTable:
    table = ResultTable(
        f"E7  Super-tile size sweep ({OBJECT_MB} MB object, "
        f"{100 * SELECTIVITY:.0f} % subcube queries)",
        ["super-tile [MB]", "mean query [s]", "mean tape bytes [MB]"],
    )
    for size_mb, mean_time, mean_tape in rows:
        table.add(size_mb, mean_time, mean_tape / MB)
    table.note(f"eSTAR automatic size S* = {s_star / MB:.0f} MB")
    table.note(f"U-curve (query time over size): [{sparkline([t for _s, t, _b in rows])}]")
    return table


def test_e7_supertile_size(benchmark, report_table):
    rows, s_star = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = build_table(rows, s_star)
    report_table("e7_supertile_size", table)

    times = [t for _s, t, _b in rows]
    best_index = times.index(min(times))
    # Shape: U-curve — the extremes are worse than the interior minimum.
    assert best_index not in (0,)
    assert times[0] > times[best_index]
    assert times[-1] > times[best_index]
    # eSTAR's automatic size lands within one sweep step of the optimum.
    best_size = rows[best_index][0] * MB
    assert best_size / 4 <= s_star <= best_size * 4
