"""Service node: the multi-tenant front-end of the SN/DN split.

A :class:`ServiceNode` holds no cells — a catalog of
:class:`~repro.core.units.ObjectDescriptor` entries, a
:class:`~repro.service.hashring.HashRing`, the tenant registry and
handles to the data nodes.  One read runs the full service pipeline:

1. **authenticate** the bearer token (401 on unknown/disabled tenants)
   and check that the region lies inside the object's domain (a typed
   :class:`~repro.errors.DomainError`, before any charge or dispatch);
2. **pre-charge** the tenant's quota with the region's estimated byte
   volume (429-style :class:`~repro.errors.QuotaExceededError` — a
   rejected query never reaches a data node);
3. **split** the region's tile cover by the ring (each tile goes to
   the node its medium was dealt to) into one
   :class:`~repro.core.units.SubReadRequest` per owning data node;
4. **dispatch** concurrently with a per-shard ``asyncio.wait_for``
   timeout guard and bounded retry; a shard that stays dark past the
   retry budget either fails the query typed
   (:class:`~repro.errors.ShardUnavailableError`) or — with
   ``partial_results`` — degrades it (missing tiles zero-filled,
   flagged);
5. **reassemble** the shard payloads (each tile clipped to its overlap
   with the region) through the shadow object and settle the quota to the
   bytes returned, which equal the pre-charge when nothing is missing.  A
   query that fails typed after its pre-charge settles it to zero.

Per-tenant served bytes, requests, rejections and retries are reported
through ``repro.obs`` metrics; the fault suite reconciles those series
against per-query reports to prove byte attribution never leaks across
tenants.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.units import ObjectDescriptor, SubReadRequest, SubReadResponse, TilePayload
from ..errors import (
    DataNodeError,
    DomainError,
    HeavenError,
    ReproError,
    ServiceError,
    ShardUnavailableError,
)
from ..arrays.minterval import MInterval
from ..obs.metrics import MetricsRegistry
from .assemble import ShadowObject
from .auth import TenantRegistry
from .hashring import HashRing
from .node import DataNode

__all__ = ["ServiceNode", "ServiceReadResult"]


@dataclass
class ServiceReadResult:
    """One answered service read plus its cost/provenance report."""

    request_id: str
    tenant: str
    cells: np.ndarray
    #: data nodes that contributed tiles, in dispatch order
    shards: List[str] = field(default_factory=list)
    bytes_useful: int = 0
    bytes_from_tape: int = 0
    #: query completion on the cluster's virtual timeline
    completion_v: float = 0.0
    #: virtual sojourn: completion minus the query's arrival
    latency_v: float = 0.0
    #: per-shard retries this query needed
    retries: int = 0
    #: partial result: at least one shard stayed dark and its tiles
    #: were fill-substituted (only with ``partial_results``)
    degraded: bool = False
    #: tile ids no shard delivered (empty unless degraded)
    missing_tiles: List[int] = field(default_factory=list)


class ServiceNode:
    """Parse, authenticate, shard, dispatch, reassemble."""

    def __init__(
        self,
        name: str,
        *,
        catalog: Dict[Tuple[str, str], ObjectDescriptor],
        ring: HashRing,
        nodes: Dict[str, DataNode],
        tenants: TenantRegistry,
        metrics: Optional[MetricsRegistry] = None,
        timeout_s: float = 30.0,
        retries: int = 1,
        partial_results: bool = False,
    ) -> None:
        self.name = name
        self.catalog = catalog
        self.ring = ring
        self.nodes = nodes
        self.tenants = tenants
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeout_s = timeout_s
        self.retries = retries
        self.partial_results = partial_results
        self._shadows: Dict[Tuple[str, str], ShadowObject] = {}
        self._next_request = 0
        self._requests_total = self.metrics.counter(
            "repro_service_requests_total",
            "service reads accepted per tenant",
        )
        self._rejected_total = self.metrics.counter(
            "repro_service_rejected_total",
            "service reads rejected per tenant and reason (401/429)",
        )
        self._tenant_bytes_total = self.metrics.counter(
            "repro_service_tenant_bytes_total",
            "useful bytes served per tenant (exact attribution)",
            unit="bytes",
        )
        self._tape_bytes_total = self.metrics.counter(
            "repro_service_tape_bytes_total",
            "attributed tape bytes per tenant",
            unit="bytes",
        )
        self._retries_total = self.metrics.counter(
            "repro_service_shard_retries_total",
            "per-shard dispatch retries",
        )
        self._degraded_total = self.metrics.counter(
            "repro_service_degraded_total",
            "queries answered as degraded partial results",
        )
        self._latency_v = self.metrics.histogram(
            "repro_service_latency_virtual_seconds",
            "virtual sojourn of answered service reads",
        )

    # ------------------------------------------------------------------ catalog

    def shadow(self, collection: str, object_name: str) -> ShadowObject:
        key = (collection, object_name)
        if key not in self._shadows:
            try:
                descriptor = self.catalog[key]
            except KeyError:
                raise HeavenError(
                    f"object {collection}/{object_name} not in the "
                    "service catalog"
                ) from None
            self._shadows[key] = ShadowObject(descriptor)
        return self._shadows[key]

    # ------------------------------------------------------------------ serving

    async def read(
        self,
        token: str,
        collection: str,
        object_name: str,
        region: str,
        *,
        arrival_v: float = 0.0,
    ) -> ServiceReadResult:
        """Serve one tenant read through the full SN/DN pipeline."""
        try:
            tenant = self.tenants.authenticate(token)
        except ServiceError:
            self._rejected_total.inc(reason="401")
            raise
        shadow = self.shadow(collection, object_name)
        parsed = MInterval.parse(region)
        if not shadow.domain.contains(parsed):
            raise DomainError(
                f"read region {parsed} outside object domain {shadow.domain}"
            )
        estimated = shadow.estimated_read_bytes(parsed)
        try:
            self.tenants.charge(tenant.name, estimated)
        except ServiceError:
            self._rejected_total.inc(tenant=tenant.name, reason="429")
            raise
        self._requests_total.inc(tenant=tenant.name)
        self._next_request += 1
        request_id = f"{self.name}-{self._next_request}"
        result = ServiceReadResult(
            request_id=request_id,
            tenant=tenant.name,
            cells=np.empty(0),
        )
        try:
            descriptor = shadow.descriptor
            by_node: Dict[str, List[int]] = {}
            cover = shadow.tiles_for(parsed)
            for tile in cover:
                owner = self.ring.node_for(descriptor.shard_key(tile.tile_id))
                by_node.setdefault(owner, []).append(tile.tile_id)
            sub_requests = [
                (
                    node_id,
                    SubReadRequest(
                        request_id=f"{request_id}/{node_id}",
                        tenant=tenant.name,
                        collection=collection,
                        object_name=object_name,
                        region=region,
                        tile_ids=tuple(tile_ids),
                        arrival_v=arrival_v,
                    ),
                )
                for node_id, tile_ids in sorted(by_node.items())
            ]
            gathered = await asyncio.gather(
                *(
                    self._dispatch(node_id, request, result)
                    for node_id, request in sub_requests
                )
            )
            payloads: Dict[int, TilePayload] = {}
            requested: set = set()
            for (_node_id, request), response in zip(sub_requests, gathered):
                requested.update(request.tile_ids)
                if response is None:
                    continue
                result.shards.append(response.node_id)
                result.bytes_from_tape += response.stats.bytes_from_tape
                result.completion_v = max(
                    result.completion_v, response.completion_v
                )
                for tile in response.tiles:
                    payloads[tile.tile_id] = tile
            result.cells = shadow.assemble(
                parsed,
                payloads,
                tiles=cover,
                missing_fill=0.0 if self.partial_results else None,
            )
            result.missing_tiles = sorted(requested - set(payloads))
            if result.missing_tiles:
                result.degraded = True
                self._degraded_total.inc(tenant=tenant.name)
        except ReproError:
            # The query dies typed (a dark shard, a damaged payload, ...);
            # its pre-charge settles to zero so a failed read does not burn
            # the tenant's byte budget.
            self.tenants.settle(tenant.name, estimated, 0)
            raise
        result.bytes_useful = sum(p.nbytes for p in payloads.values())
        result.latency_v = max(0.0, result.completion_v - arrival_v)
        self.tenants.settle(tenant.name, estimated, result.bytes_useful)
        self._tenant_bytes_total.inc(result.bytes_useful, tenant=tenant.name)
        self._tape_bytes_total.inc(
            result.bytes_from_tape, tenant=tenant.name
        )
        self._latency_v.observe(result.latency_v)
        return result

    async def _dispatch(
        self,
        node_id: str,
        request: SubReadRequest,
        result: ServiceReadResult,
    ) -> Optional[SubReadResponse]:
        """One shard's call with timeout guard and bounded retry.

        Returns ``None`` when the shard stayed dark past the retry
        budget and ``partial_results`` allows degrading; raises typed
        otherwise.
        """
        node = self.nodes[node_id]
        last_error: Optional[str] = None
        for attempt in range(self.retries + 1):
            if attempt > 0:
                result.retries += 1
                self._retries_total.inc(node=node.node_id)
            try:
                response = await asyncio.wait_for(
                    node.call(request), timeout=self.timeout_s
                )
            except asyncio.TimeoutError:
                last_error = f"timeout after {self.timeout_s}s"
                continue
            if response.ok:
                return response
            last_error = (
                f"{response.error.type}: {response.error.message}"
                if response.error
                else "unknown data-node error"
            )
        if self.partial_results:
            return None
        if last_error is not None and not last_error.startswith("timeout"):
            raise DataNodeError(
                f"shard {node.node_id} failed serving "
                f"{request.request_id}: {last_error}"
            )
        raise ShardUnavailableError(
            f"shard {node.node_id} unavailable for {request.request_id}: "
            f"{last_error}"
        )
