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
