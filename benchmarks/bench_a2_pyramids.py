"""A2 (ablation) — scaling pyramids (Kapitel 3.8, materialised scale ops).

Zoom queries (``scale(c, f, f)``) over an archived mosaic with and without
materialised pyramid levels.  Series per factor: query time, tape bytes,
plus the storage overhead of the pyramid.
"""

import pytest

from repro.bench import ResultTable, speedup
from repro.tertiary import GB, MB

from _rigs import heaven_rig

OBJECT_MB = 64  # pyramids are materialised: keep the base object real-RAM sized
FACTORS = [2, 4, 8]


def run_variant(with_pyramids: bool):
    heaven, mdd = heaven_rig(
        object_mb=OBJECT_MB,
        tile_kb=512,
        dims=2,
        super_tile_bytes=8 * MB,
        disk_cache_bytes=2 * GB,
        pyramid_factors=tuple(FACTORS) if with_pyramids else None,
    )
    heaven.archive("bench", "obj")
    heaven.library.unmount_all()
    results = {}
    for factor in FACTORS:
        # Fresh caches per factor: drop staged runs so every query is cold.
        heaven.memory_cache.invalidate_object("obj")
        for key in list(heaven.disk_cache.keys()):
            heaven.disk_cache.invalidate(key)
        start = heaven.clock.now
        tape0 = heaven.library.stats().bytes_read
        heaven.query(f"select scale(c, {factor}, {factor}) from bench as c")
        results[factor] = (
            heaven.clock.now - start,
            heaven.library.stats().bytes_read - tape0,
        )
    overhead = heaven.pyramids.total_bytes("obj") if with_pyramids else 0
    return results, overhead


def run_all():
    return run_variant(False), run_variant(True)


def build_table(plain, pyramid) -> ResultTable:
    plain_results, _ = plain
    pyramid_results, overhead = pyramid
    table = ResultTable(
        f"A2  Scaling pyramids on a {OBJECT_MB} MB archived mosaic",
        ["zoom factor", "plain [s]", "pyramid [s]", "plain tape [MB]",
         "pyramid tape [MB]", "speedup"],
    )
    for factor in FACTORS:
        plain_time, plain_bytes = plain_results[factor]
        pyr_time, pyr_bytes = pyramid_results[factor]
        table.add(
            factor,
            plain_time,
            pyr_time,
            plain_bytes / MB,
            pyr_bytes / MB,
            speedup(plain_time, pyr_time),
        )
    table.note(
        f"pyramid storage overhead: {overhead / MB:.1f} MB "
        f"({100 * overhead / (OBJECT_MB * MB):.1f} % of the object)"
    )
    return table


def test_a2_pyramids(benchmark, report_table):
    plain, pyramid = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = build_table(plain, pyramid)
    report_table("a2_pyramids", table)

    plain_results, _ = plain
    pyramid_results, overhead = pyramid
    for factor in FACTORS:
        # Shape: pyramid answers use zero tape bytes and are far faster.
        assert pyramid_results[factor][1] == 0
        assert pyramid_results[factor][0] < plain_results[factor][0] / 20
    # 2-D pyramid at 2/4/8 costs about 1/4 + 1/16 + 1/64 ≈ 33 % extra.
    assert overhead < 0.40 * OBJECT_MB * MB
