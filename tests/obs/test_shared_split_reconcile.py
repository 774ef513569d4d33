"""Field-by-field pinning of the shared tape-byte split reconciliation.

The admission layer's accounting contract: the per-query
``bytes_from_tape`` shares of fused sweeps plus the explicit
unattributed remainder equal the event log's drive-read bytes *exactly*
— no double counting of shared staged segments, no dropped bytes.  These
tests pin both the happy path and the mismatch diagnostics of
:func:`repro.obs.reconcile.reconcile_shared_tape_bytes`.
"""

from __future__ import annotations

import dataclasses

from repro.arrays import (
    DOUBLE,
    HashedNoiseSource,
    MDD,
    MInterval,
    RegularTiling,
)
from repro.core import Heaven, HeavenConfig
from repro.core.admission import AdmissionController, QuerySpec
from repro.core.scheduler import split_shared_bytes
from repro.obs import reconcile_shared_tape_bytes
from repro.obs.reconcile import event_window_bytes
from repro.tertiary import MB


def run_shared_queries():
    heaven = Heaven(
        HeavenConfig(
            super_tile_bytes=8 * 1024,
            disk_cache_bytes=64 * 1024,
            memory_cache_bytes=16 * MB,
        )
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
    heaven.library.unmount_all()
    regions = [
        MInterval.of((0, 63), (0, 63)),
        MInterval.of((0, 31), (0, 63)),
        MInterval.of((0, 63), (32, 63)),
    ]
    now = heaven.clock.now
    specs = [
        QuerySpec("col", "o0", region, arrival_s=now, name=f"q{index}")
        for index, region in enumerate(regions)
    ]
    _outputs, report = AdmissionController(heaven).run(specs)
    return heaven, report


class TestSharedSplitReconciliation:
    def test_sum_of_shares_plus_unattributed_is_event_log_exact(self):
        heaven, report = run_shared_queries()
        window_bytes = event_window_bytes(
            heaven.clock.log, report.log_cursor_start
        )
        attributed = sum(r.bytes_from_tape for r in report.queries)
        assert attributed + report.unattributed_tape_bytes == window_bytes
        assert report.total_bytes_attributed == report.bytes_from_tape
        assert (
            reconcile_shared_tape_bytes(
                report.queries,
                heaven.clock.log,
                report.log_cursor_start,
                unattributed=report.unattributed_tape_bytes,
            )
            is None
        )

    def test_shared_segments_not_double_counted(self):
        """Queries sharing every staged segment must split, not duplicate:
        no single query may be charged the full window alone unless it is
        the only one touching tape."""
        heaven, report = run_shared_queries()
        window_bytes = event_window_bytes(
            heaven.clock.log, report.log_cursor_start
        )
        sharers = [r for r in report.queries if r.bytes_from_tape > 0]
        assert len(sharers) >= 2, "the overlapping mix must share staging"
        for r in sharers:
            assert r.bytes_from_tape < window_bytes

    def test_mismatch_message_names_every_query(self):
        heaven, report = run_shared_queries()
        tampered = list(report.queries)
        tampered[0] = dataclasses.replace(
            tampered[0], bytes_from_tape=tampered[0].bytes_from_tape + 1
        )
        message = reconcile_shared_tape_bytes(
            tampered,
            heaven.clock.log,
            report.log_cursor_start,
            unattributed=report.unattributed_tape_bytes,
        )
        assert message is not None
        for r in tampered:
            assert r.object_name in message
        assert "unattributed" in message

    def test_lease_stats_balance_after_run(self):
        heaven, report = run_shared_queries()
        stats = heaven.disk_cache.stats
        # Pins handed to the queries' tickets, all dropped again.
        assert sum(query.pins for query in report.queries) > 0
        assert stats.pins == stats.unpins
        assert heaven.disk_cache.pinned_keys() == []
        heaven.assert_quiescent()

    def test_split_share_fields_feed_the_report(self):
        """The per-query share is rebuilt from the same split primitive the
        scheduler uses — field-by-field, not just in aggregate."""
        shares = split_shared_bytes(100, (1, 2, 3))
        assert shares == {1: 34, 2: 33, 3: 33}
        assert sum(shares.values()) == 100
