"""A5 (ablation) — multi-query batching at the façade (``read_many``).

E9 shows the scheduler's win on raw request batches; this ablation shows
the same effect end-to-end: N analysis queries over objects striped across
shared media, answered one by one vs as one scheduled batch.
"""

import numpy as np
import pytest

from repro.bench import ResultTable, speedup
from repro.core import Heaven, HeavenConfig, Placement, PlacementPolicy
from repro.tertiary import GB, MB
from repro.workloads import subcube, zero_object

from _rigs import BENCH_PROFILE

OBJECTS = 4
MEDIA = 4
BATCH_SIZES = [4, 8, 16]
SELECTIVITY = 0.05


class SharedStripe(PlacementPolicy):
    """Round-robin super-tiles over one fixed media set for all objects."""

    def __init__(self, media_ids):
        self.media_ids = list(media_ids)

    def plan(self, super_tiles, library):
        return [
            Placement(st, self.media_ids[i % len(self.media_ids)])
            for i, st in enumerate(super_tiles)
        ]


def build_heaven():
    heaven = Heaven(
        HeavenConfig(
            tape_profile=BENCH_PROFILE,
            super_tile_bytes=4 * MB,
            disk_cache_bytes=2 * GB,
            memory_cache_bytes=64 * MB,
            retain_payload=False,
            num_drives=1,
        )
    )
    heaven.create_collection("col")
    media = [heaven.library.new_medium(f"m{i}") for i in range(MEDIA)]
    stripe = SharedStripe([m.medium_id for m in media])
    objects = []
    for i in range(OBJECTS):
        mdd = zero_object(64, tile_kb=512, dims=3, name=f"o{i}")
        heaven.insert("col", mdd)
        heaven.archive("col", mdd.name, placement=stripe)
        objects.append(mdd)
    heaven.library.unmount_all()
    return heaven, objects


def make_batch(objects, size, seed):
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(size):
        mdd = objects[i % len(objects)]
        batch.append(("col", mdd.name, subcube(mdd.domain, SELECTIVITY, rng)))
    return batch


def run_sweep():
    rows = []
    for size in BATCH_SIZES:
        heaven, objects = build_heaven()
        batch = make_batch(objects, size, seed=size)
        exchanges0 = heaven.library.stats().exchanges
        start = heaven.clock.now
        for collection, name, region in batch:
            heaven.read(collection, name, region)
        serial_seconds = heaven.clock.now - start
        serial_exchanges = heaven.library.stats().exchanges - exchanges0

        heaven2, objects2 = build_heaven()
        batch2 = make_batch(objects2, size, seed=size)
        _outputs, report = heaven2.read_many(batch2)
        rows.append((size, serial_seconds, serial_exchanges, report))
    return rows


def build_table(rows) -> ResultTable:
    table = ResultTable(
        f"A5  Multi-query batching: serial reads vs read_many "
        f"({OBJECTS} objects striped over {MEDIA} media)",
        ["queries", "serial [s]", "batch [s]", "serial exch.", "batch exch.",
         "speedup"],
    )
    for size, serial_seconds, serial_exchanges, report in rows:
        table.add(
            size,
            serial_seconds,
            report.virtual_seconds,
            serial_exchanges,
            report.exchanges,
            speedup(serial_seconds, report.virtual_seconds),
        )
    table.note("single drive; queries interleave objects on shared media")
    return table


def test_a5_multiquery(benchmark, report_table):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = build_table(rows)
    report_table("a5_multiquery", table)

    for _size, serial_seconds, serial_exchanges, report in rows:
        assert report.exchanges < serial_exchanges
        assert report.virtual_seconds < serial_seconds
    # Batching wins substantially at every batch size (the per-query gain
    # saturates once each medium is exchanged once per batch).
    factors = [s / r.virtual_seconds for _n, s, _e, r in rows]
    assert all(f > 1.3 for f in factors)
