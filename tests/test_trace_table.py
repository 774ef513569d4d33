"""The e2e benchmark's staging and service rows stay live.

``benchmarks/e2e_layers/tracing.py:TABLE`` wraps callables by owner and
name, and its files are frozen: a callable the code stops reaching keeps
its row, which then silently reads zero.  This test installs the table's
``Recorder`` (loaded read-only from its file) around a tiny archive →
read → framed read → update → reimport run, one read through a 2-node
service cluster, and an archive and cold read on a two-drive library
(whose staging waves run through the parallel executor), and checks that
every row the read, write and service paths must feed counted calls.
"""

import importlib.util
import os
import sys
from collections import Counter

import numpy as np

from repro.arrays import DOUBLE, HashedNoiseSource, MDD, MInterval, RegularTiling
from repro.core import BoxFrame, Heaven, HeavenConfig
from repro.service import ServiceCluster

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
    ("repro.service:ServiceNode", "read"),
    ("repro.service:DataNode", "call"),
    ("repro.service:SubReadResponse", "encode"),
    ("repro.service:SubReadResponse", "decode"),
    ("repro.service:ShadowObject", "assemble"),
    ("repro.core:AdmissionController", "run_units"),
    ("repro.service:HashRing", "node_for"),
    ("repro.service:TenantRegistry", "authenticate"),
    ("repro.service:TenantRegistry", "charge"),
    ("repro.service:TenantRegistry", "settle"),
    ("repro.tertiary:TapeLibrary", "mount"),
    ("repro.tertiary:TapeLibrary", "read_extent_on"),
    ("repro.tertiary:TapeLibrary", "write_segment"),
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


def archived(num_drives):
    heaven = Heaven(
        HeavenConfig(
            super_tile_bytes=8 * 1024, disk_cache_bytes=16 * 1024, num_drives=num_drives
        ),
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
    return heaven, mdd


def exercise():
    heaven, mdd = archived(num_drives=1)
    region = MInterval.of((0, 31), (0, 31))
    cells, _report = heaven.read_with_report("col", "o0", region)
    np.testing.assert_array_equal(cells, mdd.source.region(region, DOUBLE))
    heaven.read_frame("col", "o0", BoxFrame(MInterval.of((16, 47), (16, 47))))
    heaven.update("col", "o0", MInterval.of((0, 7), (0, 7)), np.zeros((8, 8)))
    heaven.reimport("col", "o0")
    heaven.assert_quiescent()
    cluster = ServiceCluster.over(heaven, nodes=2, objects=[("col", "o0")])
    cluster.register_tenant("t")
    result = cluster.read("token-t", "col", "o0", str(region))
    np.testing.assert_array_equal(result.cells, heaven.read("col", "o0", region))
    heaven.assert_quiescent()
    two, mdd = archived(num_drives=2)
    two.library.unmount_all()
    np.testing.assert_array_equal(
        two.read("col", "o0", mdd.domain), mdd.source.region(mdd.domain, DOUBLE)
    )
    assert two.parallel_batches > 0
    two.assert_quiescent()


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
