"""Size-only and payload-bearing runs charge the same simulated costs.

Whether tiles carry bytes is decided once, at ingest, by ``ArrayStorage``
(``HeavenConfig.retain_payload`` for a ``Heaven``); the BLOB store, the tape
library and the exporters store what they are handed, and a missing payload
means sizes only.  Without compression nothing on the virtual clock may
depend on that choice, so the size-only benchmark rigs and the
payload-bearing test suite run the same code and the same event log.
(With ``zlib`` the modes differ by design: size-only tiles are accounted at
the codec's ratio estimate, real ones at their frame length.)
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np
import pytest

from repro.arrays import MInterval
from repro.core import ClusteredPlacement, CoupledExporter, TCTExporter, star_partition
from repro.tertiary import MB

RIGS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks",
    "_rigs.py",
)


def load_rigs():
    spec = importlib.util.spec_from_file_location("_rigs", RIGS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


rigs = load_rigs()


def segment_payloads(library) -> list:
    return [
        medium.payload(segment.name)
        for medium in library.media()
        for segment in medium.segments()
    ]


def heaven_run(retain_payload: bool):
    """Archive, slab reads, update, full read and reimport of a 4 MB object."""
    heaven, mdd = rigs.heaven_rig(
        object_mb=4,
        tile_kb=64,
        dims=2,
        super_tile_bytes=512 * 1024,
        min_super_tile_bytes=256 * 1024,
        disk_cache_bytes=2 * MB,
        compression="none",
        retain_payload=retain_payload,
    )
    heaven.archive("bench", "obj")
    heaven.library.unmount_all()
    (rows, cols) = mdd.domain.shape
    for k in range(5):
        lo = k * rows // 5
        heaven.read("bench", "obj", MInterval.of((lo, lo + rows // 10), (0, cols - 1)))
    patch = MInterval.of((rows // 3, rows // 2), (cols // 4, cols // 2))
    heaven.update("bench", "obj", patch, np.ones(patch.shape))
    payloads = segment_payloads(heaven.library)
    cells = heaven.read("bench", "obj", mdd.domain)
    heaven.reimport("bench", "obj")
    return list(heaven.clock.log), payloads, cells


def export_run(exporter: str, retain_payload: bool):
    storage, library, mdd = rigs.export_rig(4, tile_kb=64, retain_payload=retain_payload)
    if exporter == "coupled":
        CoupledExporter(storage, library).export(mdd)
    else:
        super_tiles = star_partition(mdd, 512 * 1024)
        plan = ClusteredPlacement().plan(super_tiles, library)
        TCTExporter(storage, library).export(mdd, plan)
    return list(library.clock.log), segment_payloads(library)


def test_heaven_rig_event_log_is_payload_independent():
    events, payloads, cells = heaven_run(retain_payload=True)
    size_only_events, size_only_payloads, size_only_cells = heaven_run(retain_payload=False)
    assert len(events) > 100
    assert size_only_events == events
    assert np.array_equal(size_only_cells, cells)
    assert payloads and all(payload is not None for payload in payloads)
    assert all(payload is None for payload in size_only_payloads)


@pytest.mark.parametrize("exporter", ["coupled", "tct"])
def test_export_rig_event_log_is_payload_independent(exporter):
    events, payloads = export_run(exporter, retain_payload=True)
    size_only_events, size_only_payloads = export_run(exporter, retain_payload=False)
    assert size_only_events == events
    assert payloads and all(payload is not None for payload in payloads)
    assert all(payload is None for payload in size_only_payloads)
