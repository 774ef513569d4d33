"""Tenant auth and quota tests: 401/429 semantics and exact settlement."""

import pytest

from repro.arrays import DOUBLE, MDD, HashedNoiseSource, MInterval, RegularTiling
from repro.core import Heaven, HeavenConfig
from repro.core.units import TilePayload
from repro.errors import (
    AuthError,
    DomainError,
    QuotaExceededError,
    ServiceError,
    ShardUnavailableError,
    WireFormatError,
)
from repro.obs.reconcile import event_window_bytes
from repro.service import DataNode, ServiceCluster, TenantRegistry
from repro.tertiary import MB


class TestRegistry:
    def test_register_and_authenticate(self):
        registry = TenantRegistry()
        tenant = registry.register("alice")
        assert tenant.token == "token-alice"
        assert registry.authenticate("token-alice").name == "alice"

    def test_unknown_token_is_401(self):
        registry = TenantRegistry()
        with pytest.raises(AuthError) as excinfo:
            registry.authenticate("nope")
        assert excinfo.value.status == 401

    def test_disabled_tenant_is_401(self):
        registry = TenantRegistry()
        registry.register("alice")
        registry.disable("alice")
        with pytest.raises(AuthError):
            registry.authenticate("token-alice")

    def test_duplicate_name_rejected(self):
        registry = TenantRegistry()
        registry.register("alice")
        with pytest.raises(ServiceError):
            registry.register("alice")

    def test_byte_quota_precharge_is_429(self):
        registry = TenantRegistry()
        registry.register("bob", max_bytes=100)
        registry.charge("bob", 60)
        with pytest.raises(QuotaExceededError) as excinfo:
            registry.charge("bob", 50)
        assert excinfo.value.status == 429
        # The rejected request consumed no budget.
        assert registry.usage("bob").bytes_charged == 60
        assert registry.usage("bob").rejected == 1

    def test_request_quota(self):
        registry = TenantRegistry()
        registry.register("bob", max_requests=2)
        registry.charge("bob", 1)
        registry.charge("bob", 1)
        with pytest.raises(QuotaExceededError):
            registry.charge("bob", 1)
        assert registry.usage("bob").requests == 2

    def test_settle_adjusts_to_actual_bytes(self):
        registry = TenantRegistry()
        registry.register("bob", max_bytes=1000)
        registry.charge("bob", 800)
        registry.settle("bob", 800, 300)
        assert registry.usage("bob").bytes_charged == 300
        # The freed estimate headroom is spendable again.
        registry.charge("bob", 600)

    def test_refund_rolls_back_request(self):
        registry = TenantRegistry()
        registry.register("bob", max_requests=1, max_bytes=100)
        registry.charge("bob", 50)
        registry.refund("bob", 50)
        assert registry.usage("bob").requests == 0
        assert registry.usage("bob").bytes_charged == 0
        registry.charge("bob", 50)


def _make_config() -> HeavenConfig:
    return HeavenConfig(
        super_tile_bytes=8 * 1024,
        disk_cache_bytes=16 * MB,
        memory_cache_bytes=8 * MB,
    )


def _setup(heaven: Heaven) -> None:
    heaven.create_collection("c")
    mdd = MDD(
        "obj",
        MInterval.of((0, 63), (0, 63)),
        DOUBLE,
        tiling=RegularTiling((16, 16)),
        source=HashedNoiseSource(3),
    )
    heaven.insert("c", mdd)
    heaven.archive("c", "obj")
    heaven.library.unmount_all()


class TestServiceQuotaEnforcement:
    def test_unknown_token_rejected_before_any_dispatch(self):
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")]
        )
        with pytest.raises(AuthError):
            cluster.read("token-ghost", "c", "obj", "0:15,0:15")
        assert all(
            node.requests_served == 0 for node in cluster.nodes.values()
        )

    def test_over_quota_read_rejected_429_and_consumes_nothing(self):
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")]
        )
        # Quota covers one 16x16 read (2048 B) but not a second.
        cluster.register_tenant("bob", max_bytes=3000)
        first = cluster.read("token-bob", "c", "obj", "0:15,0:15")
        assert first.bytes_useful == 2048
        with pytest.raises(QuotaExceededError):
            cluster.read("token-bob", "c", "obj", "16:31,0:15")
        usage = cluster.tenants.usage("bob")
        assert usage.bytes_charged == 2048
        assert usage.rejected == 1
        # The rejection never reached a data node: only the first
        # read's sub-requests (one per contributing shard) were served.
        served = sum(node.requests_served for node in cluster.nodes.values())
        assert served == len(first.shards)

    def test_settlement_charges_served_bytes_exactly(self):
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")]
        )
        cluster.register_tenant("alice")
        # The region lies inside one 16x16 tile: the data node answers
        # only the 8x8 overlap, so the settlement (returned bytes) equals
        # the pre-charge estimate (the region's cells), not the tile.
        result = cluster.read("token-alice", "c", "obj", "0:7,0:7")
        assert result.bytes_useful == 8 * 8 * 8 == result.cells.nbytes
        assert cluster.tenants.usage("alice").bytes_charged == 512

    def test_rejection_metric_counts_per_tenant(self):
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")]
        )
        cluster.register_tenant("bob", max_bytes=1)
        with pytest.raises(QuotaExceededError):
            cluster.read("token-bob", "c", "obj", "0:15,0:15")
        rejected = cluster.sn.metrics.get("repro_service_rejected_total")
        assert rejected.value(tenant="bob", reason="429") == 1.0


class TestFailedReadsCostNothing:
    """A read that fails typed leaves the tenant's books as they were."""

    def test_region_outside_the_domain_is_refused_before_the_charge(self):
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")]
        )
        cluster.register_tenant("t")
        cluster.read("token-t", "c", "obj", "0:15,0:15")
        served = cluster.sn.metrics.get("repro_service_tenant_bytes_total")
        usage = cluster.tenants.usage("t")
        before = (usage.requests, usage.bytes_charged, served.value(tenant="t"))
        cursors = [heaven.clock.log.cursor() for heaven in cluster.heavens]
        calls = [node.requests_served + node.requests_failed
                 for node in cluster.nodes.values()]

        with pytest.raises(DomainError, match="outside object domain"):
            cluster.read("token-t", "c", "obj", "40:80,0:15")

        usage = cluster.tenants.usage("t")
        assert (usage.requests, usage.bytes_charged, served.value(tenant="t")) == before
        assert [
            event_window_bytes(heaven.clock.log, cursor)
            for heaven, cursor in zip(cluster.heavens, cursors)
        ] == [0, 0]
        assert [node.requests_served + node.requests_failed
                for node in cluster.nodes.values()] == calls

    @pytest.mark.parametrize("damage, error", [
        pytest.param(
            lambda tiles: [
                TilePayload(t.tile_id, t.domain, t.dtype, memoryview(t.payload)[8:])
                for t in tiles
            ],
            WireFormatError, id="short-payload",
        ),
        pytest.param(lambda tiles: tiles[1:], ShardUnavailableError, id="dropped-tile"),
    ])
    def test_failure_after_the_charge_settles_it_to_zero(
        self, monkeypatch, damage, error
    ):
        """A data node's answer that fails the paste, a damaged payload or
        a tile left out, fails the read typed and settles its pre-charge."""
        cluster = ServiceCluster.build(
            _make_config, _setup, nodes=2, objects=[("c", "obj")]
        )
        cluster.register_tenant("t")
        call = DataNode.call

        async def damaged_call(node, request):
            response = await call(node, request)
            response.tiles = damage(response.tiles)
            return response

        monkeypatch.setattr(DataNode, "call", damaged_call)
        with pytest.raises(error):
            cluster.read("token-t", "c", "obj", "0:31,0:31")
        assert cluster.tenants.usage("t").bytes_charged == 0
