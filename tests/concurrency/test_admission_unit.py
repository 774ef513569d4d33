"""Unit tests for the admission layer's building blocks.

Covers the exact shared-byte split, the weighted-fair medium picker and
its aging escalation, per-query pin accounting, and the single-query
degenerate case (admission must cost the same as a plain read).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrays import MInterval
from repro.core.admission import (
    AdmissionController,
    QuerySpec,
    _Demand,
    _QueryTask,
)
from repro.core.scheduler import (
    TapeRequest,
    attribute_request_bytes,
    split_shared_bytes,
)
from repro.errors import HeavenError
from repro.obs import reconcile_shared_tape_bytes

from .conftest import archive_object, make_heaven, run_concurrent, specs_for


class TestSharedByteSplit:
    def test_split_sums_exactly(self):
        for length in (0, 1, 7, 1024, 999_983):
            for ids in ((1,), (1, 2), (1, 2, 3), (5, 9, 2, 7)):
                shares = split_shared_bytes(length, ids)
                assert sum(shares.values()) == length
                assert set(shares) == set(ids)

    def test_split_is_deterministic_and_id_ordered(self):
        a = split_shared_bytes(10, (3, 1, 2))
        b = split_shared_bytes(10, (2, 3, 1))
        assert a == b
        # 10 = 3*3 + 1: the lowest id gets the remainder byte.
        assert a == {1: 4, 2: 3, 3: 3}

    def test_split_dedupes_ids(self):
        assert split_shared_bytes(9, (4, 4, 4)) == {4: 9}

    def test_split_empty_ids(self):
        assert split_shared_bytes(100, ()) == {}

    def test_attribute_request_bytes_across_requests(self):
        requests = [
            TapeRequest(key="a", medium_id="m", offset=0, length=10,
                        query_ids=(1, 2)),
            TapeRequest(key="b", medium_id="m", offset=10, length=7,
                        query_ids=(2,)),
            TapeRequest(key="c", medium_id="m", offset=20, length=5,
                        query_ids=(3,)),
        ]
        totals = attribute_request_bytes(requests)
        assert totals == {1: 5, 2: 12, 3: 5}
        assert sum(totals.values()) == 22


def _task(qid: int, *, weight: float, service: float) -> _QueryTask:
    region = MInterval.of((0, 0))
    task = _QueryTask(
        qid=qid,
        spec=QuerySpec("col", "o0", region),
        weight=weight,
    )
    task.admitted = True
    task.service_s = service
    return task


def _demand(medium: str, enqueued: float) -> _Demand:
    return _Demand(key=f"seg-{medium}", medium_id=medium, run=(0, 1024),
                   enqueued_s=enqueued)


class TestMediumPicker:
    def test_weighted_fair_prefers_least_service_per_weight(self):
        heaven = make_heaven()
        controller = AdmissionController(heaven, aging_bound_s=None)
        now = heaven.clock.now
        # A: 10s service at weight 1 -> need 10.  B: 10s at weight 4 -> 2.5.
        pending = [
            (_task(1, weight=1.0, service=10.0), _demand("m-a", now)),
            (_task(2, weight=4.0, service=10.0), _demand("m-b", now)),
        ]
        assert controller._pick_medium(pending) == "m-b"

    def test_tie_breaks_on_medium_id(self):
        heaven = make_heaven()
        controller = AdmissionController(heaven, aging_bound_s=None)
        now = heaven.clock.now
        pending = [
            (_task(1, weight=1.0, service=0.0), _demand("m-z", now)),
            (_task(2, weight=1.0, service=0.0), _demand("m-a", now)),
        ]
        assert controller._pick_medium(pending) == "m-a"

    def test_aging_escalation_overrides_fairness(self):
        heaven = make_heaven()
        controller = AdmissionController(heaven, aging_bound_s=100.0)
        t0 = heaven.clock.now
        # The starved demand enqueued at t0; a fresher, fairer candidate
        # arrives later.  Push the clock past bound/2.
        heaven.clock.charge(60.0, "wait", "test")
        now = heaven.clock.now
        pending = [
            (_task(1, weight=1.0, service=9999.0), _demand("m-old", t0)),
            (_task(2, weight=4.0, service=0.0), _demand("m-new", now)),
        ]
        assert controller._pick_medium(pending) == "m-old"

    def test_no_escalation_below_half_bound(self):
        heaven = make_heaven()
        controller = AdmissionController(heaven, aging_bound_s=1000.0)
        t0 = heaven.clock.now
        heaven.clock.charge(60.0, "wait", "test")
        now = heaven.clock.now
        pending = [
            (_task(1, weight=1.0, service=9999.0), _demand("m-old", t0)),
            (_task(2, weight=4.0, service=0.0), _demand("m-new", now)),
        ]
        assert controller._pick_medium(pending) == "m-new"


class TestControllerValidation:
    def test_negative_holdback_rejected(self):
        heaven = make_heaven()
        with pytest.raises(HeavenError):
            AdmissionController(heaven, holdback_s=-1.0)

    def test_zero_aging_bound_rejected(self):
        heaven = make_heaven()
        with pytest.raises(HeavenError):
            AdmissionController(heaven, aging_bound_s=0.0)

    def test_empty_run_is_a_noop(self):
        heaven = make_heaven()
        outputs, report = AdmissionController(heaven).run([])
        assert outputs == []
        assert report.sweeps == 0


class TestSingleQuery:
    def test_single_query_matches_plain_read(self):
        region = MInterval.of((5, 40), (10, 50))
        heaven, outputs, report = run_concurrent([region])
        oracle = make_heaven()
        archive_object(oracle)
        expected, serial_report = oracle.read_with_report("col", "o0", region)
        assert np.array_equal(outputs[0], expected)
        assert report.queries[0].bytes_from_tape == serial_report.bytes_from_tape
        assert report.exchanges == serial_report.exchanges
        heaven.assert_quiescent()

    def test_attribution_reconciles_exactly(self):
        regions = [
            MInterval.of((0, 63), (0, 63)),
            MInterval.of((0, 31), (0, 31)),
            MInterval.of((32, 63), (0, 63)),
        ]
        heaven, _outputs, report = run_concurrent(regions)
        violation = reconcile_shared_tape_bytes(
            report.queries,
            heaven.clock.log,
            report.log_cursor_start,
            unattributed=report.unattributed_tape_bytes,
        )
        assert violation is None
        assert report.total_bytes_attributed == report.bytes_from_tape

    def test_leases_balance_and_quiesce(self):
        regions = [
            MInterval.of((0, 63), (0, 63)),
            MInterval.of((0, 63), (0, 63)),
        ]
        heaven, _outputs, report = run_concurrent(regions)
        stats = heaven.disk_cache.stats
        # The sweeps handed segment pins to the queries' tickets, and every
        # pin taken was dropped again.
        assert sum(query.pins for query in report.queries) > 0
        assert stats.pins == stats.unpins
        heaven.assert_quiescent()
