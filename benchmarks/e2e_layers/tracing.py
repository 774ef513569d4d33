"""Span recorder of the traced run: timing wrappers around public callables.

The untraced run installs nothing.  The traced run patches the fixed
:data:`TABLE` of public callables with wrappers that record *segments*:
an uninterrupted stretch of the single interpreter thread spent under
one wrapped call.  A synchronous call is one segment; a coroutine is one
segment per step between two awaits, so time an asyncio task spends
suspended is never billed to it.  Because all segments lie on one
thread they nest properly in time, and a segment's **self time** is its
duration minus the segments directly inside it.

Each segment also carries the span that caused it (``parent``, from a
``contextvars`` stack, so asyncio tasks keep separate stacks — a
``DataNode.call`` task points at the suspended ``ServiceNode.read`` that
spawned it) and the op id of the client op it serves.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_STACK: contextvars.ContextVar = contextvars.ContextVar("e2e_span_stack", default=())
#: op id of the client op being served; -1 outside any op (data-node workers)
CURRENT_OP: contextvars.ContextVar = contextvars.ContextVar("e2e_op", default=-1)


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner.attr`` billed to *layer*."""

    layer: str
    owner: str                       #: ``"package.module:Class"`` or ``"package.module"``
    attr: str
    #: ``(args, result) -> number`` recorded with the span (bytes, counts)
    amount: Optional[Callable] = None
    #: ``(args) -> hashable`` recorded with the span (request ids)
    tag: Optional[Callable] = None

    @property
    def name(self) -> str:
        """``Class.method``, or the bare name of a module-level function."""
        _module, _, class_name = self.owner.partition(":")
        return f"{class_name}.{self.attr}" if class_name else self.attr


def _nbytes(_args, result) -> int:
    return int(result.nbytes)


TABLE: Tuple[Target, ...] = (
    Target("service.sn", "repro.service:ServiceNode", "read"),
    Target("service.auth", "repro.service:TenantRegistry", "authenticate"),
    Target("service.auth", "repro.service:TenantRegistry", "charge"),
    Target("service.auth", "repro.service:TenantRegistry", "settle"),
    Target("service.hashring", "repro.service:HashRing", "node_for"),
    Target("service.node", "repro.service:DataNode", "call",
           tag=lambda args: args[1].request_id),
    Target("core.units", "repro.service:SubReadRequest", "encode"),
    Target("core.units", "repro.service:SubReadRequest", "decode"),
    Target("core.units", "repro.service:SubReadResponse", "encode"),
    Target("core.units", "repro.service:SubReadResponse", "decode"),
    Target("service.assemble", "repro.service:ShadowObject", "assemble", amount=_nbytes),
    Target("core.admission", "repro.core:AdmissionController", "run"),
    Target("core.admission", "repro.core:AdmissionController", "run_units",
           tag=lambda args: tuple(unit.request_id for unit in args[1])),
    Target("core.heaven", "repro.core:Heaven", "read_with_report"),
    Target("core.heaven", "repro.core:Heaven", "read_many"),
    Target("core.heaven", "repro.core:Heaven", "query"),
    Target("core.heaven", "repro.core:Heaven", "serve_sub_reads"),
    Target("core.heaven", "repro.core:Heaven", "collect_needs"),
    Target("core.heaven", "repro.core:Heaven", "plan_requests"),
    Target("core.heaven", "repro.core:Heaven", "execute_staging"),
    Target("core.heaven", "repro.core:Heaven", "insert"),
    Target("core.heaven", "repro.core:Heaven", "archive"),
    Target("core.heaven", "repro.core:Heaven", "update"),
    Target("core.heaven", "repro.core:Heaven", "reimport"),
    Target("core.heaven", "repro.core:Heaven", "delete"),
    Target("core.scheduler", "repro.core:ElevatorScheduler", "order",
           amount=lambda args, _result: len(args[1])),
    Target("tertiary", "repro.tertiary:TapeLibrary", "mount"),
    Target("tertiary", "repro.tertiary:TapeLibrary", "read_extent"),
    Target("tertiary", "repro.tertiary:TapeLibrary", "read_extent_on"),
    Target("tertiary", "repro.tertiary:TapeLibrary", "write_segment"),
    Target("core.cache", "repro.core:DiskCache", "lookup"),
    Target("core.cache", "repro.core:DiskCache", "insert"),
    Target("core.cache", "repro.core:DiskCache", "read"),
    Target("core.cache", "repro.core:DiskCache", "pin"),
    Target("core.cache", "repro.core:DiskCache", "unpin"),
    Target("core.cache", "repro.core:MemoryTileCache", "get"),
    Target("core.cache", "repro.core:MemoryTileCache", "put"),
    Target("core.compression", "repro.core:ZlibCodec", "compress",
           amount=lambda args, _result: len(args[1])),
    Target("core.compression", "repro.core:ZlibCodec", "decompress_view",
           amount=lambda args, _result: int(args[2])),
    Target("core.compression", "repro.core:ZlibCodec", "decompress_into",
           amount=lambda args, _result: len(args[2])),
    Target("arrays.mdd", "repro.arrays:MDD", "read", amount=_nbytes),
    Target("arrays.mdd", "repro.arrays:MDD", "tiles_for"),
    Target("arrays.mdd", "repro.arrays:MDD", "materialize_tile"),
    Target("arrays.query", "repro.arrays.query.executor", "parse"),
    Target("arrays.query", "repro.arrays:QueryExecutor", "execute"),
    Target("core.framing", "repro.core.heaven", "tiles_in_frame",
           amount=lambda _args, result: len(result)),
    Target("core.framing", "repro.core.framing", "tiles_in_frame",
           amount=lambda _args, result: len(result)),
    Target("core.precomputed", "repro.core:PrecomputedCatalog", "try_answer"),
    Target("core.pyramid", "repro.core:PyramidCatalog", "try_answer"),
    Target("core.export", "repro.core:TCTExporter", "export",
           amount=lambda _args, result: int(result.bytes_written)),
    Target("core.estar", "repro.core.heaven", "estar_partition"),
    Target("core.estar", "repro.core.heaven", "star_partition"),
    Target("dbms.blob", "repro.dbms:BlobStore", "put"),
    Target("dbms.blob", "repro.dbms:BlobStore", "get"),
)


class Recorder:
    """In-memory store of the segments of one traced run."""

    def __init__(self) -> None:
        #: ``(span, target index, start, end, parent span, op, amount)``
        self.segments: List[tuple] = []
        self.tags: Dict[int, object] = {}
        self._next_span = 1
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def _sync(self, fn: Callable, index: int, target: Target) -> Callable:
        segments, amount, tag = self.segments, target.amount, target.tag

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = _STACK.get()
            span = self._next_span
            self._next_span = span + 1
            if tag is not None:
                self.tags[span] = tag(args)
            token = _STACK.set(stack + (span,))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                _STACK.reset(token)
                segments.append((span, index, start, end, stack[-1] if stack else 0, CURRENT_OP.get(), 0))
                raise
            end = perf_counter()
            _STACK.reset(token)
            segments.append(
                (span, index, start, end, stack[-1] if stack else 0, CURRENT_OP.get(),
                 amount(args, result) if amount is not None else 0)
            )
            return result

        return wrapper

    def _async(self, fn: Callable, index: int, target: Target) -> Callable:
        recorder = self

        class Stepped:
            """Awaitable driving ``fn``'s coroutine one timed step at a time."""

            def __init__(self, coroutine, span: int, parent: int) -> None:
                self.coroutine, self.span, self.parent = coroutine, span, parent

            def __await__(self):
                send, throw = None, None
                while True:
                    token = _STACK.set(_STACK.get() + (self.span,))
                    start = perf_counter()
                    try:
                        if throw is None:
                            waited_on = self.coroutine.send(send)
                        else:
                            waited_on = self.coroutine.throw(throw)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        end = perf_counter()
                        _STACK.reset(token)
                        recorder.segments.append(
                            (self.span, index, start, end, self.parent, CURRENT_OP.get(), 0)
                        )
                    try:
                        send, throw = (yield waited_on), None
                    except GeneratorExit:
                        self.coroutine.close()
                        raise
                    except BaseException as error:  # delivered into the coroutine
                        send, throw = None, error

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            stack = _STACK.get()
            span = recorder._next_span
            recorder._next_span = span + 1
            if target.tag is not None:
                recorder.tags[span] = target.tag(args)
            return await Stepped(fn(*args, **kwargs), span, stack[-1] if stack else 0)

        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        """Patch every :data:`TABLE` entry; :meth:`uninstall` restores them."""
        for index, target in enumerate(TABLE):
            module_name, _, class_name = target.owner.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = inspect.getattr_static(owner, target.attr)
            fn = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
            make = self._async if inspect.iscoroutinefunction(fn) else self._sync
            wrapped: object = make(fn, index, target)
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(wrapped)
            setattr(owner, target.attr, wrapped)
            self._patched.append((owner, target.attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per segment: name, layer, start, end, parent, op."""
        with open(path, "w") as handle:
            for span, index, start, end, parent, op, amount in self.segments:
                target = TABLE[index]
                handle.write(json.dumps({
                    "span": span, "name": target.name, "layer": target.layer,
                    "start": start, "end": end, "parent": parent, "op": op,
                    "amount": amount,
                }) + "\n")


@dataclass
class Totals:
    """Aggregate of one wrapped callable (or one layer) over a traced run."""

    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    amount: float = 0.0


@dataclass
class Summary:
    by_name: Dict[str, Totals] = field(default_factory=dict)
    by_layer: Dict[str, Totals] = field(default_factory=dict)
    #: thread time under any wrapped callable (sum of outermost segments)
    covered_s: float = 0.0
    #: per ``DataNode.call``: elapsed minus its batch's serve + wire segments
    node_waits_s: List[float] = field(default_factory=list)

    def name(self, name: str) -> Totals:
        return self.by_name.get(name, Totals())

    def layer(self, layer: str) -> Totals:
        return self.by_layer.get(layer, Totals())


def summarise(segments: Sequence[tuple], tags: Dict[int, object]) -> Summary:
    """Self time per callable and per layer, by one sweep in time order."""
    summary = Summary()
    names = [target.name for target in TABLE]
    ordered = sorted(segments, key=lambda s: (s[2], -s[3]))
    open_stack: List[list] = []          # [end, child seconds, segment]
    seen_spans: set = set()
    span_window: Dict[int, List[float]] = {}
    batches: List[dict] = []             # serve + wire busy seconds per DN batch
    calls: List[Tuple[int, object]] = []

    def close(entry: list) -> None:
        end, child_s, (span, index, start, _end, _parent, _op, amount) = entry
        by_name = summary.by_name.setdefault(names[index], Totals())
        by_layer = summary.by_layer.setdefault(TABLE[index].layer, Totals())
        for totals in (by_name, by_layer):
            totals.self_s += (end - start) - child_s
            totals.amount += amount
            totals.calls += span not in seen_spans
        by_name.inclusive_s += end - start
        seen_spans.add(span)

    for segment in ordered:
        span, index, start, end = segment[:4]
        while open_stack and open_stack[-1][0] <= start:
            close(open_stack.pop())
        if open_stack:
            open_stack[-1][1] += end - start
        else:
            summary.covered_s += end - start
            if names[index] == "AdmissionController.run_units":
                batches.append({"ids": set(tags.get(span, ())), "busy": end - start})
            elif names[index].startswith("SubReadResponse.") and batches:
                batches[-1]["busy"] += end - start
        open_stack.append([end, 0.0, segment])
        window = span_window.setdefault(span, [start, end])
        window[1] = max(window[1], end)
        if names[index] == "DataNode.call" and span in tags and window[0] == start:
            calls.append((span, tags[span]))
    while open_stack:
        close(open_stack.pop())

    batch_of = {request_id: batch for batch in batches for request_id in batch["ids"]}
    for span, request_id in calls:
        batch = batch_of.get(request_id)
        if batch is not None:
            first, last = span_window[span]
            summary.node_waits_s.append(max(0.0, (last - first) - batch["busy"]))
    return summary
