"""Shared experiment rigs for the benchmark suite.

Benchmarks run size-only: the rigs build their ``ArrayStorage`` (directly,
or through ``HeavenConfig``) with ``retain_payload=False``, so tile BLOBs
hold no bytes and every layer below stores what it is handed, sizes
only.  The simulator tracks byte counts and charges device time without
holding real buffers, so multi-GB virtual objects are cheap on the host.
Either mode gives the same event log without compression
(``tests/core/test_payload_modes.py``); correctness of the bytes is
covered by the test suite.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.arrays import ArrayStorage, DOUBLE, MDD, MInterval, RegularTiling, ZeroSource
from repro.core import Heaven, HeavenConfig
from repro.dbms import Database
from repro.tertiary import DLT_7000, GB, MB, SimClock, TapeLibrary, scaled_profile
from repro.workloads import zero_object

#: Laptop-scale medium: mechanics of a DLT-7000, 2 GB capacity.
BENCH_PROFILE = scaled_profile(DLT_7000, 2 * GB)


def export_rig(
    object_mb: int,
    tile_kb: int = 256,
    profile=BENCH_PROFILE,
    retain_payload: bool = False,
) -> Tuple[ArrayStorage, TapeLibrary, MDD]:
    """A persisted 2-D object of *object_mb* MB with square tiles."""
    clock = SimClock()
    storage = ArrayStorage(Database(clock), retain_payload=retain_payload)
    library = TapeLibrary(profile, clock=clock)
    storage.create_collection("bench")
    cells = object_mb * MB // DOUBLE.size_bytes
    side = int(cells**0.5)
    tile_side = max(1, int((tile_kb * 1024 // DOUBLE.size_bytes) ** 0.5))
    mdd = MDD(
        "obj",
        MInterval.from_shape((side, side)),
        DOUBLE,
        tiling=RegularTiling((tile_side, tile_side)),
        source=ZeroSource(),
    )
    storage.insert_object("bench", mdd)
    return storage, library, mdd


def heaven_rig(
    object_mb: int = 64,
    tile_kb: int = 256,
    dims: int = 3,
    name: str = "obj",
    **config_overrides,
) -> Tuple[Heaven, MDD]:
    """A HEAVEN instance with one inserted (not yet archived) object."""
    defaults = dict(
        tape_profile=BENCH_PROFILE,
        super_tile_bytes=8 * MB,
        disk_cache_bytes=256 * MB,
        memory_cache_bytes=64 * MB,
        retain_payload=False,
    )
    defaults.update(config_overrides)
    heaven = Heaven(HeavenConfig(**defaults))
    heaven.create_collection("bench")
    mdd = zero_object(object_mb, tile_kb, dims, name=name)
    heaven.insert("bench", mdd)
    return heaven, mdd


def poisson_slabs(
    domain: MInterval, count: int, rate: float, seed: int, start: float = 0.0
) -> List[Tuple[MInterval, float]]:
    """Open-loop stream: *count* ``(region, arrival)`` pairs after *start*.

    Arrivals are a seeded Poisson process at *rate* per virtual second;
    each region is a quarter-extent slab of the first axis at a random
    offset, full on every other axis.
    """
    rng = random.Random(seed)
    first, *rest = domain.axes
    span = max(1, first.extent // 4)
    arrival = start
    stream = []
    for _ in range(count):
        arrival += rng.expovariate(rate)
        lo = rng.randrange(first.lo, max(first.lo + 1, first.hi - span))
        hi = min(first.hi, lo + span - 1)
        region = MInterval.of((lo, hi), *((a.lo, a.hi) for a in rest))
        stream.append((region, arrival))
    return stream
