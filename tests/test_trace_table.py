"""The e2e benchmark's staging rows stay live.

``benchmarks/e2e_layers/tracing.py:TABLE`` wraps callables by owner and
name, and its files are frozen: a callable the code stops reaching keeps
its row, which then silently reads zero.  This test installs the table's
``Recorder`` (loaded read-only from its file) around a tiny archive →
read → framed read → update → reimport run and checks that every row the
read and write paths must feed counted calls.
"""

import importlib.util
import os
import sys
from collections import Counter

import numpy as np

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import BoxFrame, Heaven, HeavenConfig

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "e2e_layers", "tracing.py",
)

#: ``(owner, attr)`` rows of the table that the run below must reach
LIVE = [
    ("repro.core:Heaven", "collect_needs"),
    ("repro.core:Heaven", "plan_requests"),
    ("repro.core:Heaven", "execute_staging"),
    ("repro.core:Heaven", "read_with_report"),
    ("repro.core:Heaven", "archive"),
    ("repro.core:Heaven", "update"),
    ("repro.core:Heaven", "reimport"),
    ("repro.core.heaven", "tiles_in_frame"),
    ("repro.core.heaven", "estar_partition"),
    ("repro.arrays:MDD", "materialize_tile"),
]


def load_tracing():
    """The benchmark's ``tracing`` module, imported from its file without
    putting the benchmark directory on ``sys.path``."""
    name = "e2e_layers_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TRACING)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


def exercise():
    heaven = Heaven(
        HeavenConfig(super_tile_bytes=8 * 1024, disk_cache_bytes=16 * 1024, num_drives=1),
        observability=False,
    )
    heaven.create_collection("col")
    mdd = MDD(
        "o0",
        MInterval.of((0, 63), (0, 63)),
        DOUBLE,
        tiling=RegularTiling((16, 16)),
        source=HashedNoiseSource(0, 0.0, 5.0),
    )
    heaven.insert("col", mdd)
    heaven.archive("col", "o0")
    region = MInterval.of((0, 31), (0, 31))
    cells, _report = heaven.read_with_report("col", "o0", region)
    np.testing.assert_array_equal(cells, mdd.source.region(region, DOUBLE))
    heaven.read_frame("col", "o0", BoxFrame(MInterval.of((16, 47), (16, 47))))
    heaven.update("col", "o0", MInterval.of((0, 7), (0, 7)), np.zeros((8, 8)))
    heaven.reimport("col", "o0")
    heaven.assert_quiescent()


def test_staging_rows_of_the_layer_table_count_calls():
    original = Heaven.__dict__["collect_needs"]
    tracing = load_tracing()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        exercise()
    finally:
        recorder.uninstall()
    assert Heaven.__dict__["collect_needs"] is original  # uninstalled
    calls = Counter(segment[1] for segment in recorder.segments)
    rows = {(target.owner, target.attr): index for index, target in enumerate(tracing.TABLE)}
    assert set(LIVE) <= set(rows)
    dead = [row for row in LIVE if calls[rows[row]] == 0]
    assert dead == []
