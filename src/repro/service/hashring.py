"""Shard routing onto data nodes: dealt media first, a consistent hash after.

A service node routes every tile by one key (the tile's medium once
archived, see :meth:`~repro.core.units.ObjectDescriptor.shard_key`).
Keys the cluster has **dealt** — the media registered when it was built,
handed round-robin over the nodes in sorted node-id order — go to their
dealt node, so each medium is mounted on one node only and the owner
counts differ by at most one.  Every other key (an unarchived tile, a
medium registered later) falls back to a classic virtual-node
consistent-hash ring: each data node claims :data:`REPLICAS`
pseudo-random points on a 160-bit circle, and a key is owned by the
first node point at or after the key's own hash.  Two properties of the
fallback matter and are locked down by the property suite:

* **total, deterministic routing** — every key maps to exactly one node,
  identically on every service node (the ring is pure data, no state);
* **minimal disruption** — adding a node only moves keys *to* the new
  node; everything else stays put (expected movement ≈ K/N of the
  keyspace).

Routing is a locality hint only: every data node can serve every tile.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Set, Tuple

from ..errors import ServiceError

__all__ = ["HashRing"]


#: ring points per data node
REPLICAS = 64


def _hash(key: str) -> int:
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest(), "big")


class HashRing:
    """Dealt keys plus a virtual-node consistent-hash ring, both mapping
    shard keys to node ids."""

    def __init__(self, nodes: Sequence[str] = ()) -> None:
        self._points: List[Tuple[int, str]] = []
        self._nodes: Set[str] = set()
        self._dealt: Dict[str, str] = {}
        for node in nodes:
            self.add_node(node)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ServiceError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for replica in range(REPLICAS):
            bisect.insort(self._points, (_hash(f"{node}#{replica}"), node))

    def deal(self, keys: Sequence[str]) -> None:
        """Hand *keys* round-robin, in order, over the nodes in sorted
        node-id order; a dealt key then routes to its node, whatever its
        hash."""
        if not self._nodes:
            raise ServiceError("hash ring has no nodes")
        owners = sorted(self._nodes)
        for index, key in enumerate(keys):
            self._dealt[key] = owners[index % len(owners)]

    def node_for(self, key: str) -> str:
        """The node owning *key*: its dealt node, else the first ring
        point at or after its hash."""
        dealt = self._dealt.get(key)
        if dealt is not None:
            return dealt
        if not self._points:
            raise ServiceError("hash ring has no nodes")
        index = bisect.bisect_left(self._points, (_hash(key), ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]
