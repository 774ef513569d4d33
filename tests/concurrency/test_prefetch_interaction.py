"""Regression: admission sweeps under ``prefetch="sequential"``.

``Heaven.plan_requests`` grows its *needs* dict in place when sequential
prefetch is enabled (``_add_prefetch`` appends neighbour segments that no
query demanded).  The controller passes its fused-demand dict as *needs*,
so after planning it can contain segments with no demanding query.  The
original bug: the pin hand-over and the fusion-audit loop indexed
``by_key[key]`` for those prefetch keys and crashed with ``KeyError``
(first seen as simtest seed 13).  These tests pin the fixed behaviour:
prefetched bytes stay unattributed, no query holds a pin on them, and
the audit only covers demanded segments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import MInterval
from repro.obs import reconcile_shared_tape_bytes

from .conftest import run_concurrent, serial_oracle

pytestmark = pytest.mark.property

# Small subwindows on different super-tiles so sequential prefetch has
# unmounted-neighbour segments to pull in alongside the demanded ones.
REGIONS = [
    MInterval.of((0, 15), (0, 15)),
    MInterval.of((0, 15), (16, 31)),
    MInterval.of((48, 63), (0, 63)),
]

CONFIG = {"prefetch": "sequential"}


def test_sequential_prefetch_does_not_crash_the_sweep():
    heaven, outputs, report = run_concurrent(REGIONS, config=CONFIG)
    expected = serial_oracle(REGIONS, **CONFIG)
    for got, want in zip(outputs, expected):
        assert np.array_equal(got, want)
    heaven.assert_quiescent()


def test_prefetched_bytes_stay_unattributed_and_reconcile():
    heaven, _outputs, report = run_concurrent(REGIONS, config=CONFIG)
    # Prefetch fired: some neighbour bytes came off tape for no query.
    assert report.unattributed_tape_bytes > 0
    # Per-query attribution must still cover the event log exactly; the
    # prefetched neighbours land in the unattributed bucket.
    assert (
        reconcile_shared_tape_bytes(
            report.queries,
            heaven.clock.log,
            report.log_cursor_start,
            unattributed=report.unattributed_tape_bytes,
        )
        is None
    )
    # No query is charged for bytes it never demanded.
    for query in report.queries:
        assert query.bytes_from_tape <= report.total_bytes_attributed


def test_prefetch_segments_get_no_leases_or_audit_rows():
    heaven, _outputs, report = run_concurrent(REGIONS, config=CONFIG)
    stats = heaven.disk_cache.stats
    # Every pin the sweeps handed to the queries' tickets was released at
    # assembly time -- prefetch-only segments are never pinned at all.
    assert stats.pins == stats.unpins
    assert heaven.disk_cache.pinned_keys() == []
    heaven.assert_quiescent()
    # Audit rows exist only for demanded segments, and each one was
    # demanded by at least one query.
    assert report.audit
    assert report.fused_segments == len(report.audit)
    for row in report.audit:
        assert row.queries
