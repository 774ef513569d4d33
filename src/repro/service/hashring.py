"""Consistent hashing of super-tile shard keys onto data nodes.

The service tier partitions the super-tile space with a classic
virtual-node consistent-hash ring: each data node claims :data:`REPLICAS`
pseudo-random points on a 160-bit circle, and a shard key is owned by the
first node point at or after the key's own hash.  Two properties matter
and are locked down by the property suite:

* **total, deterministic routing** — every key maps to exactly one node,
  identically on every service node (the ring is pure data, no state);
* **minimal disruption** — adding a node only moves keys *to* the new
  node; everything else stays put (expected movement ≈ K/N of the
  keyspace).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence, Set, Tuple

from ..errors import ServiceError

__all__ = ["HashRing"]


#: ring points per data node
REPLICAS = 64


def _hash(key: str) -> int:
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest(), "big")


class HashRing:
    """Virtual-node consistent-hash ring mapping shard keys to node ids."""

    def __init__(self, nodes: Sequence[str] = ()) -> None:
        self._points: List[Tuple[int, str]] = []
        self._nodes: Set[str] = set()
        for node in nodes:
            self.add_node(node)

    def add_node(self, node: str) -> None:
        if node in self._nodes:
            raise ServiceError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for replica in range(REPLICAS):
            bisect.insort(self._points, (_hash(f"{node}#{replica}"), node))

    def node_for(self, key: str) -> str:
        """The node owning *key* (first ring point at or after its hash)."""
        if not self._points:
            raise ServiceError("hash ring has no nodes")
        index = bisect.bisect_left(self._points, (_hash(key), ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

