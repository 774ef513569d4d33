"""Async multi-tenant SN/DN service tier over sharded HEAVEN data nodes.

Service nodes (:class:`~repro.service.sn.ServiceNode`) parse and
authenticate tenant reads, split them by tape medium into per-node
sub-read units (:class:`~repro.service.hashring.HashRing`), and paste
the shard responses (tiles clipped to the query region) into the
answer.  Data nodes (:class:`~repro.service.node.DataNode`) each own the
media dealt to them, backed by their own
:class:`~repro.core.heaven.Heaven` instance, and serve drained request
batches fused through the admission layer.
:class:`~repro.service.cluster.ServiceCluster` wires N of them together
in-process.  See ``docs/SERVICE.md``.
"""

from ..core.units import (
    ObjectDescriptor,
    SubReadRequest,
    SubReadResponse,
    SubReadStats,
    TilePayload,
    WireError,
    decode_frames,
    encode_frames,
)
from .assemble import ShadowObject
from .auth import Tenant, TenantRegistry, TenantUsage
from .cluster import ServiceCluster
from .faults import SERVICE_FAULT_SITES, ServiceFaultPlan, ServiceFaultSpec
from .hashring import HashRing
from .node import DataNode
from .sn import ServiceNode, ServiceReadResult

__all__ = [
    "SERVICE_FAULT_SITES",
    "DataNode",
    "HashRing",
    "ObjectDescriptor",
    "ServiceCluster",
    "ServiceFaultPlan",
    "ServiceFaultSpec",
    "ServiceNode",
    "ServiceReadResult",
    "ShadowObject",
    "SubReadRequest",
    "SubReadResponse",
    "SubReadStats",
    "Tenant",
    "TenantRegistry",
    "TenantUsage",
    "TilePayload",
    "WireError",
    "decode_frames",
    "encode_frames",
]
