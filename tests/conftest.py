"""Shared fixtures, markers and Hypothesis profiles for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.arrays import (
    DOUBLE,
    HashedNoiseSource,
    MDD,
    MInterval,
    RegularTiling,
)
from repro.core import Heaven, HeavenConfig
from repro.dbms import Database
from repro.tertiary import DLT_7000, MB, SimClock, TapeLibrary

# -- Hypothesis profiles ---------------------------------------------------------------
#
# "ci" derandomizes example generation so reruns of a red build reproduce
# the same failure instead of flaking green; print_blob still prints the
# @reproduce_failure blob on any failure so it can be replayed locally.
# The CI chaos job overrides the profile by passing --hypothesis-seed,
# which must not be combined with derandomize — in that case the "dev"
# profile (seeded, blob-printing) applies.

settings.register_profile("dev", print_blob=True)
settings.register_profile(
    "ci",
    derandomize=True,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: test directory -> marker applied to everything collected beneath it
_DIRECTORY_MARKERS = {
    "concurrency": "concurrency",
    "faults": "chaos",
    "simtest": "simtest",
    "service": "service",
}


def pytest_configure(config: pytest.Config) -> None:
    seed = config.getoption("--hypothesis-seed", default=None)
    if os.environ.get("CI") and seed in (None, ""):
        settings.load_profile("ci")
    else:
        settings.load_profile("dev")


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    rootdir = config.rootdir
    for item in items:
        relative = item.path.relative_to(str(rootdir))
        parts = relative.parts
        if len(parts) >= 2 and parts[0] == "tests":
            marker = _DIRECTORY_MARKERS.get(parts[1])
            if marker is not None:
                item.add_marker(getattr(pytest.mark, marker))


def assert_exact_cover(domain: MInterval, tiles: list[MInterval]) -> None:
    """Assert *tiles* are a disjoint exact cover of *domain*."""
    total = 0
    for i, tile in enumerate(tiles):
        assert domain.contains(tile), f"tile {tile} leaks outside domain {domain}"
        total += tile.cell_count
        for other in tiles[i + 1 :]:
            assert not tile.intersects(other), f"tiles {tile} and {other} overlap"
    assert total == domain.cell_count, (
        f"tiles cover {total} cells, domain has {domain.cell_count}"
    )


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def library(clock: SimClock) -> TapeLibrary:
    return TapeLibrary(DLT_7000, num_drives=2, clock=clock)


@pytest.fixture
def db(clock: SimClock) -> Database:
    return Database(clock)


@pytest.fixture
def small_mdd() -> MDD:
    """A 96x96 double object with 32x32 tiles and deterministic noise."""
    return MDD(
        "small",
        MInterval.of((0, 95), (0, 95)),
        DOUBLE,
        tiling=RegularTiling((32, 32)),
        source=HashedNoiseSource(42, 0.0, 100.0),
    )


@pytest.fixture
def cube_mdd() -> MDD:
    """A 3-D 128x128x32 double object (4 MB) with 32x32x8 tiles."""
    return MDD(
        "cube",
        MInterval.of((0, 127), (0, 127), (0, 31)),
        DOUBLE,
        tiling=RegularTiling((32, 32, 8)),
        source=HashedNoiseSource(7, -10.0, 10.0),
    )


@pytest.fixture
def heaven_small() -> Heaven:
    """A HEAVEN instance tuned for fast unit tests (small super-tiles)."""
    config = HeavenConfig(
        super_tile_bytes=1 * MB,
        disk_cache_bytes=32 * MB,
        memory_cache_bytes=8 * MB,
    )
    return Heaven(config)


@pytest.fixture
def archived_heaven(heaven_small: Heaven, cube_mdd: MDD) -> Heaven:
    """HEAVEN with one archived 3-D object in collection 'col'."""
    heaven_small.create_collection("col")
    heaven_small.insert("col", cube_mdd)
    heaven_small.archive("col", "cube")
    return heaven_small
