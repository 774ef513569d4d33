"""E5 — Datenretrieval durch das TS-System (Kapitel 4.4.1).

The file-level HSM baseline: whatever fraction of an archived object a
request needs, the *whole file* is staged from tape first.  The figure's
series: retrieval time and bytes moved over request selectivity — a flat
line at 100 % of the object, independent of how little the user wanted.
"""

import pytest

from repro.bench import ResultTable
from repro.tertiary import HSMSystem, MB, TapeLibrary

from _rigs import BENCH_PROFILE

OBJECT_MB = 512
SELECTIVITIES = [0.01, 0.02, 0.05, 0.10, 0.25, 0.50, 1.00]


def run_sweep():
    rows = []
    for selectivity in SELECTIVITIES:
        hsm = HSMSystem(TapeLibrary(BENCH_PROFILE))
        hsm.archive_file("obj", OBJECT_MB * MB)
        start = hsm.clock.now
        hsm.read_file("obj", 0, int(OBJECT_MB * MB * selectivity))
        elapsed = hsm.clock.now - start
        rows.append((selectivity, elapsed, hsm.stats.bytes_staged_from_tape))
    return rows


def build_table(rows) -> ResultTable:
    table = ResultTable(
        f"E5  HSM (file-granular) retrieval of a {OBJECT_MB} MB object",
        ["selectivity [%]", "useful [MB]", "staged from tape [MB]",
         "useless [%]", "time [s]"],
    )
    for selectivity, elapsed, staged in rows:
        useful = OBJECT_MB * selectivity
        table.add(
            100 * selectivity,
            useful,
            staged / MB,
            100.0 * (1 - useful * MB / staged),
            elapsed,
        )
    table.note("the whole file is staged regardless of request size")
    return table


def test_e5_retrieval_ts(benchmark, report_table):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = build_table(rows)
    report_table("e5_retrieval_ts", table)

    # Shape: bytes from tape are constant (= object size) at every
    # selectivity, and retrieval time is essentially flat.
    staged = [r[2] for r in rows]
    assert all(s == OBJECT_MB * MB for s in staged)
    times = [r[1] for r in rows]
    assert max(times) / min(times) < 1.5
