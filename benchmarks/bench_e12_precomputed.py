"""E12 — Systemkatalog für vorberechnete Operationsergebnisse (Kapitel 3.8).

Aggregation queries (condensers) over archived objects with and without the
precomputed-results catalog.  Tile-aligned aggregates are answered from the
catalog with zero tape traffic; unaligned ones read only edge tiles
(hybrid), and a repeat of that query on the same instance answers its edge
tiles from the edge partials the first run recorded.  Series: query time
and tape bytes per query class, on/off.
"""

import pytest

from repro.bench import ResultTable, speedup
from repro.tertiary import GB, MB

from _rigs import heaven_rig

OBJECT_MB = 128

QUERY_CLASSES = [
    # (label, rasql) — the object is a 3-D cube with 32-cell tiles.
    ("whole-object avg", "select avg_cells(c) from bench as c"),
    ("tile-aligned sum", "select add_cells(c[0:127, 0:127, 0:31]) from bench as c"),
    # Unaligned in x/y (interior tiles answered from the catalog, shell
    # tiles read), tile-aligned in z so an interior actually exists.
    ("unaligned max", "select max_cells(c[5:250, 9:250, 0:255]) from bench as c"),
]
#: Runs the last query class a second time on the same (warm) instance.
REPEATED = "unaligned max, repeated"


def run_variant(precompute: bool):
    results = {}
    for label, query in QUERY_CLASSES:
        # Fresh instance per query class: every measurement is cold-cache.
        heaven, _mdd = heaven_rig(
            object_mb=OBJECT_MB,
            tile_kb=256,
            dims=3,
            super_tile_bytes=8 * MB,
            disk_cache_bytes=2 * GB,
            precompute_aggregates=precompute,
        )
        heaven.archive("bench", "obj")
        heaven.library.unmount_all()
        results[label] = timed_query(heaven, query)
    results[REPEATED] = timed_query(heaven, query)
    return results


def timed_query(heaven, query):
    """(virtual seconds, tape bytes) of one query."""
    start = heaven.clock.now
    tape0 = heaven.library.stats().bytes_read
    heaven.query(query)
    return heaven.clock.now - start, heaven.library.stats().bytes_read - tape0


def run_all():
    return run_variant(False), run_variant(True)


def build_table(off, on) -> ResultTable:
    table = ResultTable(
        f"E12  Precomputed operation results ({OBJECT_MB} MB archived object)",
        ["query", "plain [s]", "catalog [s]", "plain tape [MB]",
         "catalog tape [MB]", "speedup"],
    )
    for label in [label for label, _query in QUERY_CLASSES] + [REPEATED]:
        plain_time, plain_bytes = off[label]
        cat_time, cat_bytes = on[label]
        table.add(
            label,
            plain_time,
            cat_time,
            plain_bytes / MB,
            cat_bytes / MB,
            speedup(plain_time, cat_time),
        )
    table.note("catalog = per-tile (count, sum, min, max) recorded at export")
    table.note("repeated = same instance, second run: edge partials recorded")
    return table


def test_e12_precomputed(benchmark, report_table):
    off, on = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = build_table(off, on)
    report_table("e12_precomputed", table)

    # Shape: aligned aggregates cost (almost) nothing with the catalog.
    for label in ("whole-object avg", "tile-aligned sum"):
        assert on[label][1] == 0  # zero tape bytes
        assert on[label][0] < off[label][0] / 50
    # Unaligned aggregates still win via the hybrid path (edge tiles only).
    assert on["unaligned max"][1] < off["unaligned max"][1]
    assert on["unaligned max"][0] < off["unaligned max"][0]
    # Repeated: every edge overlap is a remembered partial, nothing is read.
    assert on[REPEATED][1] == 0
    assert on[REPEATED][0] < on["unaligned max"][0] / 50
