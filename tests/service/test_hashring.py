"""Shard-routing property tests for the consistent-hash ring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service import HashRing

KEYS = [f"c/obj/st{i}" for i in range(200)]


def assignment(ring):
    return {key: ring.node_for(key) for key in KEYS}


class TestBasics:
    def test_single_node_owns_everything(self):
        ring = HashRing(["dn0"])
        assert all(ring.node_for(key) == "dn0" for key in KEYS)

    def test_empty_ring_rejects_lookup(self):
        with pytest.raises(ServiceError):
            HashRing().node_for("k")

    def test_duplicate_node_rejected(self):
        ring = HashRing(["dn0"])
        with pytest.raises(ServiceError):
            ring.add_node("dn0")

    def test_deterministic_assignment(self):
        first = assignment(HashRing(["dn0", "dn1", "dn2"]))
        second = assignment(HashRing(["dn0", "dn1", "dn2"]))
        assert first == second

    def test_every_key_maps_to_exactly_one_registered_node(self):
        ring = HashRing(["dn0", "dn1", "dn2", "dn3"])
        for key in KEYS:
            assert ring.node_for(key) in ("dn0", "dn1", "dn2", "dn3")


node_lists = st.lists(
    st.sampled_from([f"dn{i}" for i in range(8)]),
    min_size=1,
    max_size=8,
    unique=True,
)


@pytest.mark.property
class TestConsistencyProperties:
    @given(nodes=node_lists)
    @settings(max_examples=30)
    def test_total_single_valued_routing(self, nodes):
        """Every tile key routes to exactly one registered node."""
        routed = assignment(HashRing(nodes))
        assert set(routed) == set(KEYS)
        assert set(routed.values()) <= set(nodes)

    @given(nodes=node_lists)
    @settings(max_examples=30)
    def test_adding_a_node_only_moves_keys_to_it(self, nodes):
        """Rebalancing moves keys only onto the new node (~K/N of them)."""
        ring = HashRing(nodes)
        before = assignment(ring)
        ring.add_node("newbie")
        after = assignment(ring)
        moved = [key for key in KEYS if before[key] != after[key]]
        assert all(after[key] == "newbie" for key in moved)
        # expected share is K/(N+1); allow generous slack for hash variance
        expected = len(KEYS) / (len(nodes) + 1)
        assert len(moved) <= 3.5 * expected


MEDIA = [f"tape-{i:04d}" for i in range(11)]


class TestDeal:
    def test_deal_is_round_robin_in_sorted_node_order(self):
        ring = HashRing(["dn2", "dn0", "dn1"])
        ring.deal(MEDIA[:5])
        assert [ring.node_for(m) for m in MEDIA[:5]] == [
            "dn0", "dn1", "dn2", "dn0", "dn1"
        ]

    def test_deal_is_deterministic(self):
        first, second = HashRing(["dn0", "dn1", "dn2"]), HashRing(["dn2", "dn1", "dn0"])
        first.deal(MEDIA)
        second.deal(MEDIA)
        assert [first.node_for(m) for m in MEDIA] == [
            second.node_for(m) for m in MEDIA
        ]

    def test_deal_on_an_empty_ring_rejected(self):
        with pytest.raises(ServiceError):
            HashRing().deal(MEDIA)

    @given(nodes=node_lists, count=st.integers(0, 40))
    @settings(max_examples=30)
    def test_owner_counts_differ_by_at_most_one(self, nodes, count):
        ring = HashRing(nodes)
        keys = [f"tape-{i:04d}" for i in range(count)]
        ring.deal(keys)
        owned = {node: 0 for node in nodes}
        for key in keys:
            owned[ring.node_for(key)] += 1
        assert max(owned.values()) - min(owned.values()) <= 1


@pytest.mark.property
class TestUndealtKeysKeepConsistentHashing:
    """Keys the ring did not deal (unarchived tiles, media registered after
    the deal) route exactly as on a ring that dealt nothing."""

    @given(nodes=node_lists)
    @settings(max_examples=30)
    def test_fallback_ignores_the_deal(self, nodes):
        plain, dealt = HashRing(nodes), HashRing(nodes)
        dealt.deal(MEDIA)
        assert assignment(dealt) == assignment(plain)

    @given(nodes=node_lists)
    @settings(max_examples=30)
    def test_adding_a_node_only_moves_undealt_keys_to_it(self, nodes):
        ring = HashRing(nodes)
        ring.deal(MEDIA)
        dealt_before = [ring.node_for(m) for m in MEDIA]
        before = assignment(ring)
        ring.add_node("newbie")
        after = assignment(ring)
        assert all(after[key] == "newbie" for key in KEYS if before[key] != after[key])
        # a dealt medium stays on its node
        assert [ring.node_for(m) for m in MEDIA] == dealt_before
