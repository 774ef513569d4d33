"""Concurrency and fault tests for the service tier.

Every request through a faulty cluster must either complete
byte-identical to a single-node ``Heaven.read`` or fail with a typed
``ServiceError`` subclass — never hang (each async body runs under an
``asyncio.wait_for`` guard) and never leak byte attribution across
tenants (the per-tenant metric series, the registry usage and the
per-result reports must reconcile exactly).
"""

import asyncio
from typing import Dict, List

import numpy as np
import pytest

from repro.arrays import DOUBLE, MDD, HashedNoiseSource, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.core.units import SubReadRequest
from repro.errors import (
    DataNodeError,
    ServiceError,
    ShardUnavailableError,
)
from repro.faults import FaultPlan, FaultSpec
from repro.obs import event_window_bytes
from repro.service import DataNode, ServiceCluster, ServiceFaultPlan, ServiceFaultSpec
from repro.tertiary import DLT_7000, MB, scaled_profile

SIDE = 64
TILE = 16
FULL = f"0:{SIDE - 1},0:{SIDE - 1}"

#: generous wall-clock ceiling for paths that must complete; a hang
#: fails the test instead of stalling the suite
NO_HANG_S = 30.0


def _make_config(**extra) -> HeavenConfig:
    # 8 KB super-tiles on 16 KiB media: the object spans two media, and a
    # 2-node cluster routes one to each node
    settings = dict(
        tape_profile=scaled_profile(DLT_7000, 16 * 1024),
        super_tile_bytes=8 * 1024,
        disk_cache_bytes=16 * MB,
        memory_cache_bytes=8 * MB,
    )
    return HeavenConfig(**{**settings, **extra})


def _setup(heaven: Heaven) -> None:
    heaven.create_collection("c")
    mdd = MDD(
        "obj",
        MInterval.of((0, SIDE - 1), (0, SIDE - 1)),
        DOUBLE,
        tiling=RegularTiling((TILE, TILE)),
        source=HashedNoiseSource(17, -5.0, 5.0),
    )
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()


@pytest.fixture(scope="module")
def reference() -> Heaven:
    heaven = Heaven(_make_config())
    _setup(heaven)
    return heaven


def _gather_guarded(cluster: ServiceCluster, requests) -> List[object]:
    """Concurrent reads; exceptions returned in-place, never a hang."""

    async def body():
        return await asyncio.wait_for(
            asyncio.gather(
                *(
                    cluster.sn.read(token, "c", "obj", region, arrival_v=v)
                    for token, region, v in requests
                ),
                return_exceptions=True,
            ),
            timeout=NO_HANG_S,
        )

    return list(cluster.run(body))


REGIONS = [FULL, "0:31,0:31", "32:63,0:63", "0:63,16:47", "16:47,16:47"]


class TestConcurrentUnderTransportFaults:
    def test_identity_or_typed_failure(self, reference):
        plan = ServiceFaultPlan(
            seed=7,
            spec=ServiceFaultSpec(
                stall_rate=0.15, error_rate=0.15, stall_s=0.01
            ),
        )
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=4, objects=[("c", "obj")],
            fault_plan=plan, retries=2, timeout_s=5.0,
        )
        cluster.register_tenant("alice")
        cluster.register_tenant("bob")
        requests = [
            (f"token-{'alice' if i % 2 == 0 else 'bob'}", REGIONS[i % len(REGIONS)], 0.25 * i)
            for i in range(10)
        ]
        outcomes = _gather_guarded(cluster, requests)
        completed = 0
        for (_token, region, _v), outcome in zip(requests, outcomes):
            if isinstance(outcome, BaseException):
                assert isinstance(outcome, ServiceError), outcome
                continue
            completed += 1
            expected = reference.read("c", "obj", MInterval.parse(region))
            np.testing.assert_array_equal(outcome.cells, expected)
        # Retries absorb most transient faults: the bulk must complete.
        assert completed >= len(requests) // 2

    def test_no_cross_tenant_byte_attribution_leak(self, reference):
        plan = ServiceFaultPlan(
            seed=13, spec=ServiceFaultSpec(error_rate=0.25)
        )
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=4, objects=[("c", "obj")],
            fault_plan=plan, retries=1, timeout_s=5.0,
        )
        for name in ("alice", "bob", "carol"):
            cluster.register_tenant(name)
        tenants = ["alice", "bob", "carol"]
        requests = [
            (f"token-{tenants[i % 3]}", REGIONS[i % len(REGIONS)], 0.1 * i)
            for i in range(12)
        ]
        outcomes = _gather_guarded(cluster, requests)
        served: Dict[str, int] = {name: 0 for name in tenants}
        for (token, _region, _v), outcome in zip(requests, outcomes):
            if isinstance(outcome, BaseException):
                assert isinstance(outcome, ServiceError), outcome
                continue
            served[outcome.tenant] += outcome.bytes_useful
            assert token == f"token-{outcome.tenant}"
        bytes_metric = cluster.sn.metrics.get("repro_service_tenant_bytes_total")
        for name in tenants:
            # metric series == per-result sums == registry budget:
            # failed reads settle to zero, so nothing leaks anywhere.
            assert bytes_metric.value(tenant=name) == served[name]
            assert cluster.tenants.usage(name).bytes_charged == served[name]


class TestTapeByteAccounting:
    def test_tenant_tape_bytes_reconcile_with_the_data_nodes_event_logs(self):
        """Multi-unit data-node batches: each unit carries only its share
        of the fused sweeps, so the per-tenant tape-byte series plus the
        data nodes' unattributed bytes equal what their drives read."""
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")]
        )
        tenants = ["alice", "bob", "carol"]
        for name in tenants:
            cluster.register_tenant(name)
        cursors = [heaven.clock.log.cursor() for heaven in cluster.heavens]
        requests = [
            (f"token-{tenants[i % 3]}", "c", "obj", REGIONS[i % len(REGIONS)], 0.0)
            for i in range(9)
        ]
        results = cluster.read_many(requests)
        nodes = list(cluster.nodes.values())
        served = sum(node.requests_served for node in nodes)
        assert sum(node.batches for node in nodes) < served, "no multi-unit batch"
        tape_metric = cluster.sn.metrics.get("repro_service_tape_bytes_total")
        charged = sum(tape_metric.value(tenant=name) for name in tenants)
        assert charged == sum(result.bytes_from_tape for result in results)
        drive_reads = sum(
            event_window_bytes(heaven.clock.log, cursor)
            for heaven, cursor in zip(cluster.heavens, cursors)
        )
        assert drive_reads > 0
        assert charged + sum(n.unattributed_tape_bytes for n in nodes) == drive_reads


class TestRetryAndTypedFailures:
    def test_drop_then_retry_succeeds(self, reference):
        plan = ServiceFaultPlan(seed=0)
        plan.fail_next("drop", node="dn0")
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")],
            fault_plan=plan, retries=1, timeout_s=0.1,
        )
        cluster.register_tenant("alice")
        result = cluster.read("token-alice", "c", "obj", FULL)
        assert result.retries >= 1
        expected = reference.read("c", "obj", MInterval.parse(FULL))
        np.testing.assert_array_equal(result.cells, expected)

    def test_drop_past_retry_budget_is_shard_unavailable(self):
        plan = ServiceFaultPlan(seed=0)
        plan.fail_next("drop", node="dn0", count=2)
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")],
            fault_plan=plan, retries=1, timeout_s=0.05,
        )
        cluster.register_tenant("alice")
        with pytest.raises(ShardUnavailableError):
            cluster.read("token-alice", "c", "obj", FULL)
        # The failed query's pre-charge was settled back to zero.
        assert cluster.tenants.usage("alice").bytes_charged == 0

    def test_transport_error_past_retry_budget_is_typed(self):
        plan = ServiceFaultPlan(seed=0)
        plan.fail_next("error", node="dn0", count=2)
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")],
            fault_plan=plan, retries=1, timeout_s=5.0,
        )
        cluster.register_tenant("alice")
        with pytest.raises(DataNodeError):
            cluster.read("token-alice", "c", "obj", FULL)

    def test_stall_within_timeout_is_absorbed(self, reference):
        plan = ServiceFaultPlan(
            seed=0, spec=ServiceFaultSpec(stall_s=0.01)
        )
        plan.fail_next("stall", node="dn0")
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")],
            fault_plan=plan, retries=0, timeout_s=5.0,
        )
        cluster.register_tenant("alice")
        result = cluster.read("token-alice", "c", "obj", FULL)
        assert result.retries == 0
        expected = reference.read("c", "obj", MInterval.parse(FULL))
        np.testing.assert_array_equal(result.cells, expected)


class TestDegradedPartialResults:
    def test_dark_shard_degrades_with_fill(self, reference):
        plan = ServiceFaultPlan(seed=0)
        plan.fail_next("drop", node="dn0", count=2)
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")],
            fault_plan=plan, retries=1, timeout_s=0.05,
            partial_results=True,
        )
        cluster.register_tenant("alice")
        result = cluster.read("token-alice", "c", "obj", FULL)
        assert result.degraded
        assert result.missing_tiles
        assert "dn0" not in result.shards
        expected = reference.read("c", "obj", MInterval.parse(FULL))
        mdd = reference.collection("c").get("obj")
        region = MInterval.parse(FULL)
        missing = set(result.missing_tiles)
        for tile_id, tile in mdd.tiles.items():
            window = tuple(
                slice(t_lo - r_lo, t_hi - r_lo + 1)
                for t_lo, t_hi, r_lo in zip(
                    tile.domain.origin, tile.domain.high, region.origin
                )
            )
            if tile_id in missing:
                assert np.all(result.cells[window] == 0.0)
            else:
                np.testing.assert_array_equal(
                    result.cells[window], expected[window]
                )
        # The tenant only paid for the bytes that actually arrived.
        assert result.bytes_useful < expected.nbytes
        assert (
            cluster.tenants.usage("alice").bytes_charged
            == result.bytes_useful
        )
        degraded = cluster.sn.metrics.get("repro_service_degraded_total")
        assert degraded.value(tenant="alice") == 1.0


class TestHardwareFaults:
    def test_offline_library_fails_typed_not_hung(self):
        """A mount-level hardware fault inside one DN's Heaven surfaces
        as a typed service error, not a hang or a wrong answer."""
        heavens = []
        for _ in range(2):
            heaven = Heaven(_make_config(fault_plan=FaultPlan(seed=1)))
            _setup(heaven)
            heavens.append(heaven)
        heavens[0].config.fault_plan.set_offline(True)
        cluster = ServiceCluster(
            heavens, objects=[("c", "obj")], retries=1, timeout_s=5.0
        )
        cluster.register_tenant("alice")
        with pytest.raises(DataNodeError):
            cluster.read("token-alice", "c", "obj", FULL)

    def test_offline_library_with_partial_results_degrades(self, reference):
        heavens = []
        for _ in range(2):
            heaven = Heaven(_make_config(fault_plan=FaultPlan(seed=1)))
            _setup(heaven)
            heavens.append(heaven)
        heavens[0].config.fault_plan.set_offline(True)
        cluster = ServiceCluster(
            heavens, objects=[("c", "obj")], retries=1, timeout_s=5.0,
            partial_results=True,
        )
        cluster.register_tenant("alice")
        result = cluster.read("token-alice", "c", "obj", FULL)
        assert result.degraded
        assert result.missing_tiles
        assert result.cells.shape == (SIDE, SIDE)

    def test_transient_mount_failure_served_by_storage_retry(self, reference):
        """One scheduled mount failure is absorbed below the service
        tier (the library's retry policy) — the read still completes."""
        heavens = []
        for _ in range(2):
            plan = FaultPlan(seed=1, spec=FaultSpec())
            heaven = Heaven(_make_config(fault_plan=plan))
            _setup(heaven)
            heavens.append(heaven)
        heavens[0].config.fault_plan.fail_next("mount")
        cluster = ServiceCluster(
            heavens, objects=[("c", "obj")], retries=1, timeout_s=10.0
        )
        cluster.register_tenant("alice")
        result = cluster.read("token-alice", "c", "obj", FULL)
        expected = reference.read("c", "obj", MInterval.parse(FULL))
        np.testing.assert_array_equal(result.cells, expected)


class TestPoisonedBatchAccounting:
    def test_reserved_units_are_counted_once(self):
        """One unit's medium exhausts the retry budget in a 3-unit batch:
        the node re-serves every unit alone, and the units that had
        already finished inside the failed batch must not be counted
        twice — the read counters reconcile with the responses handed
        out."""
        # One object per medium, so the healthy objects' sweeps finish
        # before the poisoned medium is mounted.
        heaven = Heaven(
            _make_config(
                min_super_tile_bytes=4 * 1024,
                tape_profile=scaled_profile(DLT_7000, SIDE * SIDE * 8),
                fault_plan=FaultPlan(seed=1),
            )
        )
        heaven.create_collection("c")
        for index in range(3):
            heaven.insert(
                "c",
                MDD(
                    f"o{index}",
                    MInterval.of((0, SIDE - 1), (0, SIDE - 1)),
                    DOUBLE,
                    tiling=RegularTiling((TILE, TILE)),
                    source=HashedNoiseSource(index, -5.0, 5.0),
                ),
            )
            heaven.archive("c", f"o{index}")
        heaven.library.unmount_all()
        media = [
            {heaven.library.locate(st.segment_name)
             for st in heaven.archived(f"o{index}").super_tiles}
            for index in range(3)
        ]
        assert all(len(m) == 1 for m in media) and len(set.union(*media)) == 3
        for super_tile in heaven.archived("o1").super_tiles:
            medium_id, segment = heaven.library.segment(super_tile.segment_name)
            heaven.library.medium(medium_id).add_bad_spot(
                segment.offset, segment.length, transient=False
            )

        node = DataNode("dn0", heaven)
        tiles_before = heaven.read_tiles_needed
        bytes_before = heaven.read_bytes_useful
        cover = tuple(
            t.tile_id
            for t in heaven.collection("c").get("o0").tiles_for(MInterval.parse(FULL))
        )
        responses = node._serve_requests(
            [
                SubReadRequest(
                    request_id=f"r{index}", tenant="t", collection="c",
                    object_name=f"o{index}", region=FULL, tile_ids=cover,
                )
                for index in range(3)
            ]
        )
        assert [r.ok for r in responses] == [True, False, True]
        assert responses[1].error.type == "RetryExhaustedError"
        served = [r for r in responses if r.ok]
        assert heaven.read_bytes_useful - bytes_before == sum(
            r.stats.bytes_useful for r in served
        )
        assert heaven.read_tiles_needed - tiles_before == len(served) * (
            SIDE // TILE
        ) ** 2
        heaven.assert_quiescent()
