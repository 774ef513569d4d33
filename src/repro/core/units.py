"""Serializable request/response units of the hierarchical read path.

The service tier (:mod:`repro.service`) splits one logical read across
data nodes, routing each tile by the tape medium it lives on.
The currency of that split is defined here:

* :class:`SubReadRequest` — "give me these tiles of that object, clipped
  to this region", small enough to route to whichever node owns their media;
* :class:`SubReadResponse` — the decoded tile payloads plus the
  storage-cost stats of serving them;
* :class:`ObjectDescriptor` — the metadata a service node needs to split
  a region into per-shard sub-reads without holding the data itself: the
  object's own tiling, so both tiers see the same tile ids.

Both request and response are plain dataclasses whose state round-trips
through an explicit wire format: a JSON header line followed by length-prefixed
binary payload frames (:func:`encode_frames` / :func:`decode_frames`).
Cell bytes never pass through JSON — they ride in the binary frames, and
decoding hands back zero-copy ``memoryview`` slices of the received
buffer.  A sub-read can therefore be dispatched to a local task today and
a remote node tomorrow without changing shape.

:meth:`repro.core.admission.AdmissionController.run_units` is the
executable half (:meth:`repro.core.heaven.Heaven.serve_sub_reads` is the
same call): every unit is one admission query, the units' staging fuses
into shared sweeps, and each response is shaped by :func:`_unit_response`
from that query's answer and report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..arrays.celltype import CellType, lookup as lookup_cell_type
from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.operations import MArray
from ..arrays.tiling import RegularTiling
from ..errors import CellTypeError, DomainError, WireFormatError

if TYPE_CHECKING:
    from .admission import RetrievalReport

__all__ = [
    "SubReadRequest",
    "SubReadResponse",
    "SubReadStats",
    "TilePayload",
    "WireError",
    "ObjectDescriptor",
    "encode_frames",
    "decode_frames",
]

Payload = Union[bytes, bytearray, memoryview]

#: wire-format version stamped into every encoded header
WIRE_VERSION = 1

#: a missing or mistyped header field; decoders re-raise it as WireFormatError
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError)


# -- framing -------------------------------------------------------------------


def encode_frames(header: Dict[str, object], payloads: Sequence[Payload]) -> bytes:
    """One message = 4-byte header length + JSON header + payload frames.

    The header carries every JSON-able field plus the byte length of each
    payload frame; the frames follow back to back.  ``bytes.join`` accepts
    memoryviews, so callers can pass zero-copy views straight through.
    """
    head = dict(header)
    head["_wire"] = WIRE_VERSION
    head["_frames"] = [len(memoryview(p)) for p in payloads]
    head_bytes = json.dumps(head, sort_keys=True).encode("utf-8")
    return b"".join(
        [len(head_bytes).to_bytes(4, "big"), head_bytes, *payloads]
    )


def decode_frames(data: Payload) -> Tuple[Dict[str, object], List[memoryview]]:
    """Inverse of :func:`encode_frames`; payloads are read-only views."""
    view = memoryview(data).cast("B").toreadonly()
    if len(view) < 4:
        raise WireFormatError("message shorter than its header length field")
    head_len = int.from_bytes(view[:4], "big")
    if 4 + head_len > len(view):
        raise WireFormatError("message truncated inside the JSON header")
    try:
        header = json.loads(bytes(view[4 : 4 + head_len]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireFormatError(f"malformed JSON header: {exc}") from None
    if not isinstance(header, dict):
        raise WireFormatError(f"JSON header is a {type(header).__name__}, not an object")
    if header.get("_wire") != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {header.get('_wire')!r}"
        )
    lengths = header.get("_frames", [])
    if not isinstance(lengths, list) or any(type(n) is not int or n < 0 for n in lengths):
        raise WireFormatError(f"frame lengths {lengths!r} are not sizes")
    frames: List[memoryview] = []
    offset = 4 + head_len
    for length in lengths:
        end = offset + length
        if end > len(view):
            raise WireFormatError("message truncated inside a payload frame")
        frames.append(view[offset:end])
        offset = end
    if offset != len(view):
        raise WireFormatError(
            f"{len(view) - offset} trailing byte(s) after the last frame"
        )
    header.pop("_wire", None)
    header.pop("_frames", None)
    return header, frames


def _as_payload(cells: np.ndarray) -> memoryview:
    """Flat read-only byte view of an array (zero-copy when contiguous)."""
    contiguous = np.ascontiguousarray(cells)
    return memoryview(contiguous).cast("B").toreadonly()


def _dtype_for(name: str) -> np.dtype:
    """Resolve a wire dtype name: registry first, raw numpy names second.

    Objects wrapped via ``MDD.from_array`` carry numpy dtype names
    ("float64") instead of registered RasDL names ("double").
    """
    try:
        return lookup_cell_type(name).dtype
    except CellTypeError:
        try:
            return np.dtype(name)
        except TypeError:
            raise WireFormatError(f"unknown wire dtype {name!r}") from None


def _cells(tile: "TilePayload", dtype: np.dtype, shape: Tuple[int, ...]) -> np.ndarray:
    """Read-only ndarray view of a received *tile*'s payload as *shape*
    cells of *dtype* (zero-copy): the one decoder of tile payloads.  A
    payload that does not hold exactly those cells raises
    :class:`WireFormatError`."""
    size = memoryview(tile.payload).nbytes
    if size != dtype.itemsize * math.prod(shape):
        raise WireFormatError(
            f"tile {tile.tile_id} arrived with {size} B for its {tile.domain} "
            f"cells of {dtype}"
        )
    return np.frombuffer(tile.payload, dtype=dtype).reshape(shape)


# -- units ---------------------------------------------------------------------


@dataclass(frozen=True)
class WireError:
    """A typed error carried inside a response unit."""

    type: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {"type": self.type, "message": self.message}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WireError":
        try:
            return cls(type=str(data["type"]), message=str(data["message"]))
        except _MALFORMED as exc:
            raise WireFormatError(f"malformed wire error: {exc!r}") from None


@dataclass(frozen=True)
class SubReadRequest:
    """One routable sub-read: a tile subset of one object.

    *tile_ids* is the subset a service node's hash ring assigned to the
    addressed data node; each tile must intersect *region*, which lies
    inside the object's domain, and the node answers every tile clipped to
    that overlap.
    """

    request_id: str
    tenant: str
    collection: str
    object_name: str
    region: str
    tile_ids: Tuple[int, ...]
    #: virtual arrival time on the cluster timeline (open-loop clients)
    arrival_v: float = 0.0

    def parsed_region(self) -> MInterval:
        return MInterval.parse(self.region)

    def to_header(self) -> Dict[str, object]:
        return {
            "kind": "sub_read",
            "request_id": self.request_id,
            "tenant": self.tenant,
            "collection": self.collection,
            "object": self.object_name,
            "region": self.region,
            "tile_ids": list(self.tile_ids),
            "arrival_v": self.arrival_v,
        }

    def encode(self) -> bytes:
        return encode_frames(self.to_header(), [])

    @classmethod
    def from_header(cls, header: Dict[str, object]) -> "SubReadRequest":
        if header.get("kind") != "sub_read":
            raise WireFormatError(f"not a sub_read header: {header.get('kind')!r}")
        try:
            return cls(
                request_id=str(header["request_id"]),
                tenant=str(header["tenant"]),
                collection=str(header["collection"]),
                object_name=str(header["object"]),
                region=str(header["region"]),
                tile_ids=tuple(int(t) for t in header["tile_ids"]),
                arrival_v=float(header.get("arrival_v", 0.0)),
            )
        except _MALFORMED as exc:
            raise WireFormatError(f"malformed sub_read header: {exc!r}") from None

    @classmethod
    def decode(cls, data: Payload) -> "SubReadRequest":
        header, frames = decode_frames(data)
        if frames:
            raise WireFormatError("sub_read request carries no payload frames")
        return cls.from_header(header)


@dataclass(frozen=True)
class TilePayload:
    """One decoded tile riding in a response: geometry + raw cell bytes.

    ``domain`` is the box the cells cover: the tile's overlap with the
    request's region, so only cells the query asked for cross the wire.
    """

    tile_id: int
    domain: str
    dtype: str
    payload: Payload

    @classmethod
    def from_cells(
        cls, tile_id: int, domain: MInterval, cell_type: CellType, cells: np.ndarray
    ) -> "TilePayload":
        return cls(
            tile_id=tile_id,
            domain=str(domain),
            dtype=cell_type.name,
            payload=_as_payload(cells),
        )

    def cells(self) -> np.ndarray:
        """Read-only ndarray view over the payload bytes (zero-copy)."""
        try:
            shape = MInterval.parse(self.domain).shape
        except DomainError as exc:
            raise WireFormatError(f"malformed payload domain: {exc}") from None
        return _cells(self, _dtype_for(self.dtype), shape)

    @property
    def nbytes(self) -> int:
        return len(memoryview(self.payload))


@dataclass
class SubReadStats:
    """Storage-cost accounting of serving one response unit: the report
    of the admission query that answered it.

    ``bytes_from_tape`` is the unit's exact share of the sweeps that served
    it (plus its own assembly's reads): the shares of one batch sum to the
    node's drive reads, less the node's unattributed remainder.  Event
    counts (``exchanges``, ``faults``, ``restages``) and
    ``super_tiles_staged`` cover every sweep the unit was part of, so a
    shared sweep's mounts and faults appear on every unit that demanded it.
    """

    bytes_useful: int = 0
    bytes_from_tape: int = 0
    exchanges: int = 0
    virtual_seconds: float = 0.0
    faults: int = 0
    restages: int = 0
    super_tiles_staged: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "bytes_useful": self.bytes_useful,
            "bytes_from_tape": self.bytes_from_tape,
            "exchanges": self.exchanges,
            "virtual_seconds": self.virtual_seconds,
            "faults": self.faults,
            "restages": self.restages,
            "super_tiles_staged": self.super_tiles_staged,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SubReadStats":
        try:
            return cls(
                bytes_useful=int(data.get("bytes_useful", 0)),
                bytes_from_tape=int(data.get("bytes_from_tape", 0)),
                exchanges=int(data.get("exchanges", 0)),
                virtual_seconds=float(data.get("virtual_seconds", 0.0)),
                faults=int(data.get("faults", 0)),
                restages=int(data.get("restages", 0)),
                super_tiles_staged=int(data.get("super_tiles_staged", 0)),
            )
        except _MALFORMED as exc:
            raise WireFormatError(f"malformed sub-read stats: {exc!r}") from None


@dataclass
class SubReadResponse:
    """The answer to one :class:`SubReadRequest`.

    Either ``error`` is set (typed failure inside the serving node) or the
    unit carries its answer: the requested tiles, each clipped to the
    request's region.
    """

    request_id: str
    object_name: str
    node_id: str = ""
    tiles: List[TilePayload] = field(default_factory=list)
    stats: SubReadStats = field(default_factory=SubReadStats)
    error: Optional[WireError] = None
    #: virtual completion time on the serving node's cluster timeline
    completion_v: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def encode(self) -> bytes:
        payloads: List[Payload] = [tile.payload for tile in self.tiles]
        header: Dict[str, object] = {
            "kind": "sub_read_response",
            "request_id": self.request_id,
            "object": self.object_name,
            "node_id": self.node_id,
            "tiles": [
                {"tile_id": t.tile_id, "domain": t.domain, "dtype": t.dtype}
                for t in self.tiles
            ],
            "stats": self.stats.to_dict(),
            "error": None if self.error is None else self.error.to_dict(),
            "completion_v": self.completion_v,
        }
        return encode_frames(header, payloads)

    @classmethod
    def decode(cls, data: Payload) -> "SubReadResponse":
        header, frames = decode_frames(data)
        if header.get("kind") != "sub_read_response":
            raise WireFormatError(
                f"not a sub_read_response header: {header.get('kind')!r}"
            )
        try:
            tile_meta = list(header.get("tiles", []))
            if len(frames) != len(tile_meta):
                raise WireFormatError(
                    f"expected {len(tile_meta)} payload frame(s), got {len(frames)}"
                )
            tiles = [
                TilePayload(
                    tile_id=int(meta["tile_id"]),
                    domain=str(meta["domain"]),
                    dtype=str(meta["dtype"]),
                    payload=frame,
                )
                for meta, frame in zip(tile_meta, frames)
            ]
            error = header.get("error")
            return cls(
                request_id=str(header["request_id"]),
                object_name=str(header["object"]),
                node_id=str(header.get("node_id", "")),
                tiles=tiles,
                stats=SubReadStats.from_dict(dict(header.get("stats", {}))),
                error=None if error is None else WireError.from_dict(dict(error)),
                completion_v=float(header.get("completion_v", 0.0)),
            )
        except _MALFORMED as exc:
            raise WireFormatError(f"malformed sub_read_response header: {exc!r}") from None


def _answer_nbytes(answer: object) -> int:
    """Cell bytes a unit's answer returns: region cells, per-tile cells, or
    a trim's or a frame's ``MArray`` (a frame answers ``(MArray, mask)``).
    A mutation's body and condenser edge partials return none."""
    if isinstance(answer, tuple):
        answer = answer[0]
    if isinstance(answer, dict):
        return sum(int(cells.nbytes) for cells in answer.values())
    cells = answer.cells if isinstance(answer, MArray) else answer
    return int(cells.nbytes) if isinstance(cells, np.ndarray) else 0


def _unit_response(
    request: SubReadRequest,
    mdd: MDD,
    answer: Dict[int, np.ndarray],
    report: "RetrievalReport",
) -> SubReadResponse:
    """Shape one answered unit (``{tile_id: clipped cells}``) and its
    query's report as a response: tiles whose domains are the clip boxes."""
    region = request.parsed_region()
    tiles = [
        TilePayload.from_cells(
            tile_id,
            mdd.tiles[tile_id].domain.intersection(region),
            mdd.cell_type,
            cells,
        )
        for tile_id, cells in sorted(answer.items())
    ]
    return SubReadResponse(
        request_id=request.request_id,
        object_name=request.object_name,
        tiles=tiles,
        stats=SubReadStats(
            bytes_useful=_answer_nbytes(answer),
            bytes_from_tape=report.bytes_from_tape,
            exchanges=report.exchanges,
            virtual_seconds=report.virtual_seconds,
            faults=report.faults,
            restages=report.restages,
            super_tiles_staged=report.super_tiles_staged,
        ),
    )


@dataclass(frozen=True)
class ObjectDescriptor:
    """Routable metadata of one object: what a service node routes by.

    *tiling* and *cell_type* are the object's own, so a service node that
    tiles *domain* with them gets the data nodes' tile ids and index.
    ``tile_media`` maps each archived tile to the medium its super-tile
    segment lives on — the shard key, so every tile of one medium lands
    on the same node and that medium is mounted there only.
    Disk-resident tiles route per tile under a synthetic key.
    """

    collection: str
    name: str
    domain: MInterval
    cell_type: CellType
    tiling: RegularTiling
    tile_media: Dict[int, str] = field(default_factory=dict)
    archived: bool = False

    def shard_key(self, tile_id: int) -> str:
        medium = self.tile_media.get(tile_id)
        if medium is not None:
            return medium
        return f"{self.collection}/{self.name}/t{tile_id}"
