"""In-process simulated SN/DN cluster: N data nodes behind one service node.

Two construction modes:

* :meth:`ServiceCluster.build` — the *scaling* shape: every data node
  gets its **own fresh** :class:`~repro.core.heaven.Heaven` built by
  ``config_factory()`` and populated by running ``setup(heaven)``
  identically on each (a full copy of the archive per node).  The
  cluster deals the media round-robin over the nodes and routes each
  tile to its medium's node, so a medium is mounted on one node only and
  the cluster's drives work as one pool — this is where adding nodes
  buys virtual-time throughput.
* :meth:`ServiceCluster.over` — the *oracle* shape: all data nodes
  share ONE existing Heaven.  Used by simtest, where reads through the
  service tier must observe exactly the state the oracle tracked.

The cluster is pure asyncio in one process.  Wall-clock parallelism is
irrelevant: throughput and latency are computed on the virtual timeline
(each data node's frontier, see :mod:`.node`).
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.config import HeavenConfig
from ..core.heaven import Heaven
from ..core.units import ObjectDescriptor
from ..errors import ServiceError
from ..obs.metrics import MetricsRegistry
from .auth import Tenant, TenantRegistry
from .faults import ServiceFaultPlan
from .hashring import HashRing
from .node import DataNode
from .sn import ServiceNode, ServiceReadResult

__all__ = ["ServiceCluster"]


class ServiceCluster:
    """N data nodes, one routing ring, one service node.

    The ring deals ``heavens[0].library.media()`` once, here, after the
    nodes join: the media in registration order, round-robin over the
    nodes in sorted node-id order.  Tiles on a dealt medium go to its
    node; unarchived tiles and media registered later fall back to the
    ring's consistent hash.  Routing is a locality hint only — every
    data node can serve every tile, so a stale catalog changes cost,
    never bytes.
    """

    def __init__(
        self,
        heavens: Sequence[Heaven],
        *,
        objects: Iterable[Tuple[str, str]],
        fault_plan: Optional[ServiceFaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        timeout_s: float = 30.0,
        retries: int = 1,
        partial_results: bool = False,
    ) -> None:
        if not heavens:
            raise ServiceError("a service cluster needs at least one data node")
        self.heavens = list(heavens)
        self.fault_plan = fault_plan
        self.tenants = TenantRegistry()
        self.ring = HashRing()
        self.nodes: Dict[str, DataNode] = {}
        for index, heaven in enumerate(self.heavens):
            node_id = f"dn{index}"
            self.ring.add_node(node_id)
            self.nodes[node_id] = DataNode(node_id, heaven, fault_plan=fault_plan)
        self.ring.deal([m.medium_id for m in self.heavens[0].library.media()])
        # Every data node holds the same schema (build mode runs the same
        # setup everywhere; over mode shares one instance), so any node
        # can describe the catalog.
        self.catalog: Dict[Tuple[str, str], ObjectDescriptor] = {
            (collection, name): self.heavens[0].describe_object(collection, name)
            for collection, name in objects
        }
        self.sn = ServiceNode(
            "sn0",
            catalog=self.catalog,
            ring=self.ring,
            nodes=self.nodes,
            tenants=self.tenants,
            metrics=metrics,
            timeout_s=timeout_s,
            retries=retries,
            partial_results=partial_results,
        )

    # ------------------------------------------------------------------ builders

    @classmethod
    def build(
        cls,
        config_factory: Callable[[], HeavenConfig],
        setup: Callable[[Heaven], None],
        *,
        nodes: int = 2,
        objects: Iterable[Tuple[str, str]],
        **kwargs: object,
    ) -> "ServiceCluster":
        """Fresh Heaven per data node; ``setup`` populates each identically."""
        if nodes < 1:
            raise ServiceError("nodes must be >= 1")
        heavens = []
        for _ in range(nodes):
            heaven = Heaven(config_factory())
            setup(heaven)
            heavens.append(heaven)
        return cls(heavens, objects=objects, **kwargs)

    @classmethod
    def over(
        cls,
        heaven: Heaven,
        *,
        nodes: int = 2,
        objects: Iterable[Tuple[str, str]],
        **kwargs: object,
    ) -> "ServiceCluster":
        """All data nodes share ONE Heaven (oracle/simtest mode)."""
        if nodes < 1:
            raise ServiceError("nodes must be >= 1")
        return cls([heaven] * nodes, objects=objects, **kwargs)

    # ------------------------------------------------------------------ tenants

    def register_tenant(
        self,
        name: str,
        token: Optional[str] = None,
        *,
        max_requests: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> Tenant:
        return self.tenants.register(
            name, token, max_requests=max_requests, max_bytes=max_bytes
        )

    # ------------------------------------------------------------------ running

    async def start(self) -> None:
        for node in self.nodes.values():
            await node.start()

    async def stop(self) -> None:
        for node in self.nodes.values():
            await node.stop()

    def run(self, body: Callable[[], Awaitable[object]]) -> object:
        """Run ``body`` with all data nodes started, then stop them.

        The one blocking entry point: wraps ``asyncio.run`` so callers
        (CLI, benchmarks, simtest) stay synchronous.
        """

        async def main() -> object:
            await self.start()
            try:
                return await body()
            finally:
                await self.stop()

        return asyncio.run(main())

    def read(
        self,
        token: str,
        collection: str,
        object_name: str,
        region: str,
        *,
        arrival_v: float = 0.0,
    ) -> ServiceReadResult:
        """Blocking single read through the service tier."""
        return self.run(
            lambda: self.sn.read(
                token, collection, object_name, region, arrival_v=arrival_v
            )
        )

    def read_many(
        self,
        requests: Sequence[Tuple[str, str, str, str, float]],
    ) -> List[ServiceReadResult]:
        """Blocking concurrent batch: ``(token, collection, object, region,
        arrival_v)`` tuples are dispatched together (open-loop arrivals)."""

        async def body() -> List[ServiceReadResult]:
            return list(
                await asyncio.gather(
                    *(
                        self.sn.read(
                            token, collection, name, region, arrival_v=arrival
                        )
                        for token, collection, name, region, arrival in requests
                    )
                )
            )

        return self.run(body)  # type: ignore[return-value]
