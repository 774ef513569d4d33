"""The admission layer under injected faults.

Hold-back windows and fused sweeps must compose with the recovery layer:
mount failures inside a sweep are retried transparently (byte identity
still holds), and when the retry budget is spent mid-run the controller
must release every query's staging ticket on its way out — quiescence
is part of the error contract, not just the happy path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FaultPlan, FaultSpec, RetryPolicy
from repro.arrays import (
    DOUBLE,
    HashedNoiseSource,
    MDD,
    MInterval,
    RegularTiling,
)
from repro.core import Heaven, HeavenConfig
from repro.core.admission import AdmissionController, QuerySpec
from repro.core.units import SubReadRequest
from repro.errors import StorageError
from repro.tertiary import MB

REGIONS = [
    MInterval.of((0, 63), (0, 63)),
    MInterval.of((0, 31), (0, 63)),
    MInterval.of((16, 47), (0, 31)),
]


def build_heaven(plan=None, **overrides) -> Heaven:
    config = HeavenConfig(
        super_tile_bytes=8 * 1024,
        disk_cache_bytes=64 * 1024,
        memory_cache_bytes=16 * MB,
        num_drives=overrides.pop("num_drives", 2),
        fault_plan=plan,
        **overrides,
    )
    heaven = Heaven(config)
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
    return heaven


def specs_on(heaven, arrivals) -> list:
    now = heaven.clock.now
    return [
        QuerySpec(
            collection="col",
            object_name="o0",
            region=region,
            arrival_s=now + offset,
            name=f"q{index}",
        )
        for index, (region, offset) in enumerate(zip(REGIONS, arrivals))
    ]


class TestAdmissionUnderFaults:
    def test_holdback_with_mount_failures_stays_byte_identical(self):
        # Schedule the faults after archive so only the admission run,
        # not the setup, sees them.
        plan = FaultPlan(seed=11, spec=FaultSpec())
        heaven = build_heaven(plan)
        plan.fail_next("mount", count=2)
        specs = specs_on(heaven, [0.0, 2.0, 4.0])
        controller = AdmissionController(heaven, holdback_s=3.0)
        outputs, report = controller.run(specs)

        oracle = build_heaven()
        expected = [oracle.read("col", "o0", region) for region in REGIONS]
        for got, want in zip(outputs, expected):
            assert np.array_equal(got, want)
        assert plan.stats.injected.get("mount", 0) >= 2, (
            "the scheduled plan must actually inject mount failures"
        )
        assert heaven.library.recovery.retries > 0
        assert report.sweeps >= 1
        heaven.assert_quiescent()

    def test_exhausted_retries_mid_sweep_leak_no_leases(self):
        plan = FaultPlan(seed=3, spec=FaultSpec())
        heaven = build_heaven(
            plan,
            retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=1.0),
        )
        plan.fail_next("mount", count=16)  # outlast retries on both drives
        specs = specs_on(heaven, [0.0, 0.0, 0.0])
        controller = AdmissionController(heaven, holdback_s=2.0)
        with pytest.raises(StorageError):
            controller.run(specs)
        # The error path released every query's ticket: nothing pinned.
        assert heaven.disk_cache.pinned_keys() == []
        heaven.assert_quiescent()

    def test_faulted_run_reports_reconcile(self):
        from repro.obs import reconcile_shared_tape_bytes

        plan = FaultPlan(seed=23, spec=FaultSpec())
        heaven = build_heaven(plan)
        plan.fail_next("mount", count=1)
        specs = specs_on(heaven, [0.0, 1.0, 2.0])
        controller = AdmissionController(heaven, holdback_s=2.0)
        _outputs, report = controller.run(specs)
        violation = reconcile_shared_tape_bytes(
            report.queries,
            heaven.clock.log,
            report.log_cursor_start,
            unattributed=report.unattributed_tape_bytes,
        )
        assert violation is None


class TestUnitStatsCoverTheirSweep:
    """A data-node unit's stats carry the mounts and faults of the sweep
    that served it, as a direct read's report does."""

    @staticmethod
    def faulted_heaven() -> Heaven:
        plan = FaultPlan(seed=11, spec=FaultSpec())
        heaven = build_heaven(plan)
        plan.fail_next("mount")
        return heaven

    @pytest.mark.parametrize("units", [1, 2])
    def test_mount_fault_appears_on_every_unit(self, units):
        heaven = self.faulted_heaven()
        mdd = heaven.collection("col").get("o0")
        requests = [
            SubReadRequest(
                request_id=f"u{index}", tenant="t", collection="col",
                object_name="o0", region=str(REGIONS[index]),
                tile_ids=tuple(t.tile_id for t in mdd.tiles_for(REGIONS[index])),
            )
            for index in range(units)
        ]
        responses, report = AdmissionController(heaven).run_units(requests)
        _cells, direct = self.faulted_heaven().read_with_report(
            "col", "o0", REGIONS[0]
        )
        assert (direct.faults, direct.exchanges) == (1, 1)
        assert report.sweeps == 1
        for response in responses:
            assert (response.stats.faults, response.stats.exchanges) == (1, 1)
        # Tape bytes stay exact shares of the one sweep.
        assert sum(r.stats.bytes_from_tape for r in responses) == report.bytes_from_tape
        heaven.assert_quiescent()
