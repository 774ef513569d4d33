"""E10 — Caching von Array-Daten (Kapitel 3.6.3 Verdrängungsstrategien).

Replays the same popularity-skewed (Zipf + locality) query stream against
the HEAVEN disk cache under every eviction policy.  Series: hit ratio,
bytes staged from tape and mean query time per policy — LRU beats FIFO
on a skewed stream, the tape-cost-aware GDS is competitive, and pinned
staging keeps every policy's tape traffic within a narrow band.
"""

import numpy as np
import pytest

from repro.bench import ResultTable
from repro.core import policy_names
from repro.tertiary import MB
from repro.workloads import ZipfQueryStream

from _rigs import heaven_rig

OBJECT_MB = 192
CACHE_MB = 24
QUERIES = 60
SELECTIVITY = 0.015


def run_policy(policy: str):
    heaven, mdd = heaven_rig(
        object_mb=OBJECT_MB,
        tile_kb=512,
        dims=3,
        super_tile_bytes=8 * MB,
        disk_cache_bytes=CACHE_MB * MB,
        memory_cache_bytes=1,  # effectively disabled: isolate the disk cache
        disk_cache_policy=policy,
    )
    heaven.archive("bench", "obj")
    heaven.library.unmount_all()
    stream = ZipfQueryStream(
        [mdd.domain], selectivity=SELECTIVITY, locality=0.75, seed=17
    )
    start = heaven.clock.now
    tape_before = heaven.library.stats().bytes_read
    for event in stream.take(QUERIES):
        heaven.read("bench", "obj", event.region)
    elapsed = heaven.clock.now - start
    staged = heaven.library.stats().bytes_read - tape_before
    stats = heaven.disk_cache.stats
    return stats.hit_ratio, staged, elapsed / QUERIES


def run_all():
    return {policy: run_policy(policy) for policy in policy_names()}


def build_table(results) -> ResultTable:
    table = ResultTable(
        f"E10  Eviction strategies ({CACHE_MB} MB cache, {OBJECT_MB} MB object, "
        f"{QUERIES} Zipf queries)",
        ["policy", "hit ratio", "bytes from tape [MB]", "mean query [s]"],
    )
    ordered = sorted(results.items(), key=lambda kv: kv[1][2])
    for policy, (hit_ratio, staged, mean_time) in ordered:
        table.add(policy, hit_ratio, staged / MB, mean_time)
    table.note("memory tile cache disabled; every hit/miss is the disk cache's")
    return table


def test_e10_caching(benchmark, report_table):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = build_table(results)
    report_table("e10_caching", table)

    # Shape: recency beats insertion order on a locality-heavy stream —
    # more hits, fewer bytes re-staged from tape, shorter queries.
    assert results["lru"][0] > results["fifo"][0]
    assert results["lru"][1] < results["fifo"][1]
    assert results["lru"][2] < results["fifo"][2]
    # The tape-cost-aware GDS policy is competitive ...
    assert results["gds"][2] < results["fifo"][2] * 1.05
    # ... and with staged runs pinned until assembled no policy restages
    # its own working set: all five land within 10 % on tape traffic.
    staged = [result[1] for result in results.values()]
    assert max(staged) <= min(staged) * 1.10
