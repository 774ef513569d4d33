"""Data node: one shard owner serving sub-read units over asyncio.

A :class:`DataNode` owns the tape media the cluster dealt to it (the
service node routes each tile by its medium) and a whole :class:`~repro.core.heaven.Heaven` instance (its own clock,
disk cache, drive pool).  Requests arrive through an inbox queue; the
worker task drains the queue in **batches**, so sub-reads from many
concurrent tenants that land while the node is busy are answered in one
fused staging pass through
:meth:`~repro.core.admission.AdmissionController.run_units` — per-unit
staging tickets and EXACT per-unit tape-byte attribution (no
cross-tenant leakage).

Every response round-trips through the binary wire format before being
handed back — the local dispatch exercises the exact bytes a remote
deployment would ship.

Virtual throughput model: the node keeps a *virtual frontier* — the
cluster-timeline instant it becomes free.  A batch starts at
``max(frontier, latest arrival)``, costs the Heaven clock's advance
while serving, and every member completes when the batch does.  Service
nodes take the max over shards to get a query's completion; q/s and p95
of the scaling benchmark are computed on this timeline (wall-clock
parallelism is irrelevant to the simulation, exactly as everywhere else
in this repo).
"""

from __future__ import annotations

import asyncio
from typing import List, Optional, Tuple

from ..core.admission import AdmissionController
from ..core.heaven import Heaven
from ..core.units import SubReadRequest, SubReadResponse, WireError
from ..errors import ReproError, ServiceError
from ..obs.reconcile import event_window_bytes
from .faults import ServiceFaultPlan

__all__ = ["DataNode"]


class DataNode:
    """One shard-owning storage node of the service tier."""

    def __init__(
        self,
        node_id: str,
        heaven: Heaven,
        *,
        fault_plan: Optional[ServiceFaultPlan] = None,
    ) -> None:
        self.node_id = node_id
        self.heaven = heaven
        self.fault_plan = fault_plan
        # Created per start(): an asyncio.Queue binds to the loop it is
        # first used in, and a cluster may be run() more than once (each
        # run a fresh event loop).
        self.inbox: "Optional[asyncio.Queue[Optional[Tuple[SubReadRequest, asyncio.Future]]]]" = (
            None
        )
        self._worker_task: Optional[asyncio.Task] = None
        #: cluster-timeline instant this node becomes free
        self.v_frontier = 0.0
        #: lifetime counters
        self.requests_served = 0
        self.requests_failed = 0
        self.batches = 0
        self.bytes_served = 0
        self.wire_bytes = 0
        #: drive-read bytes no answered unit was charged: a sweep's
        #: unattributed remainder, and everything a failed batch read
        self.unattributed_tape_bytes = 0

    # ------------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        if self._worker_task is not None:
            raise ServiceError(f"node {self.node_id!r} already started")
        self.inbox = asyncio.Queue()
        self._worker_task = asyncio.ensure_future(self._worker())

    async def stop(self) -> None:
        if self._worker_task is None:
            return
        await self.inbox.put(None)
        await self._worker_task
        self._worker_task = None
        self.inbox = None

    # ------------------------------------------------------------------ transport

    async def call(self, request: SubReadRequest) -> SubReadResponse:
        """Dispatch one sub-read to this node and await its response.

        Transport faults (see :class:`ServiceFaultPlan`) are injected
        here — at the boundary a remote deployment would cross: a stall
        delays the call, a drop never resolves (the caller's timeout
        guard must fire), an error answers typed without touching the
        node's storage.
        """
        if self.fault_plan is not None:
            site = self.fault_plan.draw(self.node_id)
            if site == "stall":
                await asyncio.sleep(self.fault_plan.spec.stall_s)
            elif site == "drop":
                await asyncio.get_running_loop().create_future()  # never set
            elif site == "error":
                self.requests_failed += 1
                return SubReadResponse(
                    request_id=request.request_id,
                    object_name=request.object_name,
                    node_id=self.node_id,
                    error=WireError(
                        type="DataNodeError",
                        message=(
                            f"injected transport error at {self.node_id}"
                        ),
                    ),
                )
        if self.inbox is None:
            raise ServiceError(f"node {self.node_id!r} is not started")
        future = asyncio.get_running_loop().create_future()
        await self.inbox.put((request, future))
        return await future

    # ------------------------------------------------------------------ worker

    async def _worker(self) -> None:
        """Drain the inbox forever, serving each drained batch fused."""
        while True:
            item = await self.inbox.get()
            if item is None:
                return
            batch: List[Tuple[SubReadRequest, asyncio.Future]] = [item]
            stop = False
            while not self.inbox.empty():
                extra = self.inbox.get_nowait()
                if extra is None:
                    stop = True
                    break
                batch.append(extra)
            self._serve_batch(batch)
            # Yield once per batch so enqueued callers observe results
            # before the next batch is drained (deterministic turn order).
            await asyncio.sleep(0)
            if stop:
                return

    def _serve_batch(
        self, batch: List[Tuple[SubReadRequest, asyncio.Future]]
    ) -> None:
        requests = [request for request, _future in batch]
        started_v = max(
            [self.v_frontier] + [r.arrival_v for r in requests]
        )
        clock_before = self.heaven.clock.now
        responses = self._serve_requests(requests)
        service_delta = self.heaven.clock.now - clock_before
        completion_v = started_v + service_delta
        self.v_frontier = completion_v
        self.batches += 1
        for (request, future), response in zip(batch, responses):
            response.node_id = self.node_id
            response.completion_v = completion_v
            if response.ok:
                self.requests_served += 1
                self.bytes_served += response.stats.bytes_useful
            else:
                self.requests_failed += 1
            encoded = response.encode()
            self.wire_bytes += len(encoded)
            response = SubReadResponse.decode(encoded)
            if not future.cancelled():
                future.set_result(response)

    def _serve_requests(
        self, requests: List[SubReadRequest]
    ) -> List[SubReadResponse]:
        try:
            return self._run_units(requests)
        except ReproError:
            # A poisoned batch (one unit hitting an exhausted retry
            # budget, an offline library, a region outside its object) must
            # not take down its neighbours: fall back to serving each unit
            # alone so only the genuinely failing ones answer typed errors.
            return [self._serve_one(request) for request in requests]

    def _run_units(self, requests: List[SubReadRequest]) -> List[SubReadResponse]:
        """One fused admission run, keeping the tape-byte books exact: the
        answered units carry their attributed shares, the rest is counted
        in :attr:`unattributed_tape_bytes`."""
        log = self.heaven.clock.log
        cursor = log.cursor()
        try:
            responses, report = AdmissionController(self.heaven).run_units(
                requests
            )
        except ReproError:
            self.unattributed_tape_bytes += event_window_bytes(log, cursor)
            raise
        self.unattributed_tape_bytes += report.unattributed_tape_bytes
        return responses

    def _serve_one(self, request: SubReadRequest) -> SubReadResponse:
        try:
            return self._run_units([request])[0]
        except ReproError as error:
            return SubReadResponse(
                request_id=request.request_id,
                object_name=request.object_name,
                node_id=self.node_id,
                error=WireError(
                    type=type(error).__name__, message=str(error)
                ),
            )
