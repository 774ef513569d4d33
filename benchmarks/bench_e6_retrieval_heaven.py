"""E6 — Datenretrieval durch RasDaMan/HEAVEN (Kapitel 4.4.2).

Super-tile-granular retrieval over the same selectivity sweep as E5.
Expected shape: bytes moved scale with the request (plus super-tile
rounding), giving order-of-magnitude time wins at the paper's canonical
1-10 % selectivities; towards 100 % both systems converge on streaming
the whole object and the advantage disappears.
"""

import numpy as np
import pytest

from repro.bench import ResultTable, speedup
from repro.tertiary import GB, HSMSystem, MB, TapeLibrary
from repro.workloads import subcube

from _rigs import BENCH_PROFILE, heaven_rig

OBJECT_MB = 512
SELECTIVITIES = [0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00]


def hsm_time(selectivity: float) -> float:
    hsm = HSMSystem(TapeLibrary(BENCH_PROFILE))
    hsm.archive_file("obj", OBJECT_MB * MB)
    start = hsm.clock.now
    hsm.read_file("obj", 0, int(OBJECT_MB * MB * selectivity))
    return hsm.clock.now - start


def run_sweep():
    rows = []
    rng = np.random.default_rng(7)
    for selectivity in SELECTIVITIES:
        heaven, mdd = heaven_rig(
            object_mb=OBJECT_MB,
            tile_kb=512,
            dims=3,
            super_tile_bytes=16 * MB,
            # The staging area must hold the working set, as the HSM's does;
            # cache-pressure effects are E10's subject, not this sweep's.
            disk_cache_bytes=2 * GB,
        )
        heaven.archive("bench", "obj")
        region = subcube(mdd.domain, selectivity, rng)
        _cells, report = heaven.read_with_report("bench", "obj", region)
        rows.append((selectivity, report, hsm_time(selectivity)))
    return rows


def build_table(rows) -> ResultTable:
    table = ResultTable(
        f"E6  HEAVEN (super-tile-granular) retrieval of a {OBJECT_MB} MB object",
        ["selectivity [%]", "useful [MB]", "from tape [MB]", "useless [%]",
         "HEAVEN [s]", "HSM [s]", "speedup vs HSM"],
    )
    for selectivity, report, hsm_seconds in rows:
        table.add(
            100 * selectivity,
            report.bytes_useful / MB,
            report.bytes_from_tape / MB,
            100 * report.useless_ratio,
            report.virtual_seconds,
            hsm_seconds,
            speedup(hsm_seconds, report.virtual_seconds),
        )
    table.note("cold caches per point; clustered placement; elevator scheduling")
    return table


def test_e6_retrieval_heaven(benchmark, report_table):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = build_table(rows)
    report_table("e6_retrieval_heaven", table)

    # Shape: at 1-10 % selectivity HEAVEN moves a small fraction of the
    # object and wins clearly; at 100 % the two systems converge.
    for selectivity, report, hsm_seconds in rows:
        if selectivity <= 0.10:
            assert report.bytes_from_tape <= 0.5 * OBJECT_MB * MB
            assert report.virtual_seconds < hsm_seconds
    last = rows[-1]
    assert 0.4 < last[1].virtual_seconds / last[2] < 2.5  # converged
    # Monotone: more selectivity, more bytes from tape.
    tape_bytes = [r[1].bytes_from_tape for r in rows]
    assert tape_bytes == sorted(tape_bytes)
