"""Per-tile compression of archived data.

Tape drives of the paper's era compressed in hardware; HEAVEN benefits from
it doubly because *transfer time*, not capacity, is the scarce resource:
a tile stored at ratio r streams in r times the time.  Compression is
applied **per tile**, so the byte extents inside a super-tile segment stay
addressable and partial runs keep working.

Codecs serve both kinds of tile the simulator holds:

* a tile with bytes is really compressed, preserving end-to-end fidelity
  through compress/decompress round-trips;
* a size-only tile (no bytes: its object was ingested without them) is
  accounted at a deterministic ratio estimate
  (:meth:`Codec.estimated_size`), so huge virtual experiments still
  account transfer times correctly.

:func:`repro.core.rewrite.frames` is the one place that chooses between
the two, tile by tile, from whether the source bytes are there.

A :class:`ZlibCodec` frame is either the tile's cells verbatim behind a
``\\x00`` marker, or a marker naming the entropy coder, the cell size in
bytes, and one level-1 stream of the tile's byte planes: ``\\x02`` for a
zstd frame, ``\\x01`` for a DEFLATE stream (see the class for why).  The
frame is self-describing: decode needs only the frame and the tile's size.

Each tile frame is encoded **once per content version**: ``archive``
encodes every tile in one batch and exports those frames, and ``update``
re-encodes only the tiles its region touches, carrying the other frames
of a rewritten super-tile over verbatim from the old segment.  A batch
(:meth:`Codec.compress_all`) encodes on the calling thread: under zstd a
thread pool was worth no measurable ``ingest_update`` throughput on a
2-vCPU host (ROADMAP, parked).

New frames are written through the system's **libzstd** when it loads
(:data:`ENCODER` names the encoder picked at import), and as DEFLATE
through the standard ``zlib`` module otherwise, so the frames depend on
the host.  Decode dispatches on the marker: a DEFLATE frame inflates
through ``zlib`` on every host, and a zstd frame decodes through libzstd,
failing with :class:`~repro.errors.HeavenError` on a host without it.  A
segment may hold both kinds.

(De)compression CPU time is not charged on the virtual clock: the
modelled drives compress in hardware at line speed, as DLT/LTO drives do.
"""

from __future__ import annotations

import ctypes
import threading
import zlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import HeavenError

#: anything the zero-copy read path may hand a codec: staged segment bytes
#: or a ``memoryview`` slice of them (no intermediate ``bytes`` copies).
Buffer = Union[bytes, bytearray, memoryview]


class Codec:
    """Compression codec interface.

    Besides :meth:`compress`, codecs expose two zero-copy decode entry
    points:

    * :meth:`decompress_view` — a **read-only view** of the raw cells,
      avoiding any materialisation the codec does not strictly require
      (the identity codec returns a view of the stored buffer itself);
      this is what the staged-run read path decodes through;
    * :meth:`decompress_into` — decompression into a caller-owned buffer.
    """

    name = "abstract"
    #: fallback compressed/uncompressed ratio for size-only accounting
    estimated_ratio = 1.0

    def compress(self, raw: bytes, itemsize: int = 1) -> bytes:
        """The on-tape frame of *raw*, a whole number of *itemsize*-byte
        cells (the object's ``cell_type.dtype.itemsize``)."""
        raise NotImplementedError

    def compress_all(self, raws: Sequence[bytes], itemsize: int = 1) -> List[bytes]:
        """Frames of *raws* in input order, one :meth:`compress` each."""
        return [self.compress(raw, itemsize) for raw in raws]

    def estimated_size(self, logical_size: int) -> int:
        """Size-only accounting: bytes a tile of *logical_size* occupies on
        tape (never zero)."""
        return max(1, int(logical_size * self.estimated_ratio))

    def decompress_view(self, stored: Buffer, expected_size: int) -> memoryview:
        """Read-only view of the raw bytes behind *stored*.

        Codecs that can serve the raw cells without copying do (see
        :class:`NoneCodec`).  The returned view is always read-only, so
        ``np.frombuffer`` over it yields a non-writable array.
        """
        raise NotImplementedError

    def decodes_to_view(self, stored: Buffer) -> bool:
        """Whether :meth:`decompress_view` serves *stored* as a view over
        its own bytes — no decode work, so the cells are free to rebuild."""
        return False

    def decompress_into(self, stored: Buffer, out: memoryview) -> int:
        """Decompress *stored* into the writable buffer *out*.

        Returns the number of raw bytes written.  *out* is measured in
        bytes, whatever its item format.  Raises
        :class:`~repro.errors.HeavenError` when *out* is not the raw size.
        """
        raise NotImplementedError


class NoneCodec(Codec):
    """Identity codec (the default)."""

    name = "none"
    estimated_ratio = 1.0

    def compress(self, raw: bytes, itemsize: int = 1) -> bytes:
        return raw

    def decompress_view(self, stored: Buffer, expected_size: int) -> memoryview:
        # Identity codec: the stored bytes ARE the raw cells — serve a
        # read-only view straight over the staged segment, zero copies.
        if len(stored) != expected_size:
            raise HeavenError(
                f"stored size {len(stored)} != expected {expected_size} "
                "for uncompressed data"
            )
        return memoryview(stored).toreadonly()

    def decodes_to_view(self, stored: Buffer) -> bool:
        return True

    def decompress_into(self, stored: Buffer, out: memoryview) -> int:
        out = memoryview(out).cast("B")
        if len(stored) != len(out):
            raise HeavenError(
                f"stored size {len(stored)} != output buffer {len(out)} "
                "for uncompressed data"
            )
        out[:] = stored
        return len(stored)


#: ZlibCodec frame markers — the first stored byte.
_Z_STORED = 0
_Z_DEFLATE = 1
_Z_ZSTD = 2
#: level of every compressed frame, zstd or DEFLATE: over byte planes a
#: fast level archives no more than DEFLATE-6 over the interleaved cells,
#: at a fraction of the encode time (EXPERIMENTS A4); zstd gets there
#: with two blocks and its double-fast strategy (see its encoder)
_LEVEL = 1
#: widest cell split into byte planes (the frame header holds one byte);
#: wider cells compress unshuffled, as one plane
_MAX_ITEMSIZE = 255

# Encoders compress a tile's byte planes (a C-contiguous array, one row
# per plane) at level 1 into one stream of at most *limit* bytes and
# return ``b""`` when it does not fit.  Decoders fill *dest* from one
# stream, exactly, or raise HeavenError: a broken, truncated or
# trailing-bytes stream, a failed check, or one that decodes to any other
# size.
Encode = Callable[[np.ndarray, int], bytes]
Decode = Callable[[memoryview, memoryview], None]

#: per-thread codec state: libzstd's (de)compression contexts (neither is
#: thread-safe) and the scratch buffer byte planes decode into before the
#: unshuffle
_local = threading.local()


def _zlib_deflate(planes: np.ndarray, limit: int) -> bytes:
    """The fallback encoder: one level-1 zlib stream."""
    packed = zlib.compress(planes, _LEVEL)
    return packed if len(packed) <= limit else b""


def _zlib_inflate(src: memoryview, dest: memoryview) -> None:
    """Every DEFLATE frame's decoder: the standard ``zlib`` module."""
    inflater = zlib.decompressobj()
    try:
        # one byte past *dest* bounds a hostile stream and still shows it
        # overflows
        data = inflater.decompress(src, len(dest) + 1)
    except zlib.error:
        raise HeavenError(
            "corrupt DEFLATE stream: broken, bad header or bad Adler-32"
        ) from None
    if len(data) > len(dest):
        raise HeavenError(f"corrupt DEFLATE stream: inflates past {len(dest)} B")
    if not inflater.eof:
        raise HeavenError("corrupt DEFLATE stream: truncated")
    if inflater.unused_data:
        raise HeavenError(
            f"corrupt DEFLATE stream: {len(inflater.unused_data)} B after the stream"
        )
    if len(data) != len(dest):
        raise HeavenError(f"decompressed to {len(data)} B, expected {len(dest)} B")
    dest[:] = data


def _address(buffer: memoryview) -> int:
    # a pointer into *buffer* without copying it, read-only buffers too
    return np.frombuffer(buffer, np.uint8).ctypes.data


#: the zstd frame magic number, little-endian (RFC 8878, 3.1.1)
_ZSTD_MAGIC = b"\x28\xb5\x2f\xfd"
#: Content_Checksum_flag in the frame header descriptor, the byte after
#: the magic number
_ZSTD_CHECKSUM_FLAG = 0x04
#: ``ZSTD_cParameter`` values of the stable API, and ``ZSTD_dfast``
_ZSTD_C_LEVEL = 100
_ZSTD_C_STRATEGY = 107
_ZSTD_C_CHECKSUM = 201
_ZSTD_DFAST = 2
#: ``ZSTD_ResetDirective``: start a new frame, keep the parameters
_ZSTD_RESET_SESSION = 1
#: ``ZSTD_EndDirective`` values: end the current block, end the frame
_ZSTD_E_FLUSH = 1
_ZSTD_E_END = 2


class _ZstdBuffer(ctypes.Structure):
    """``ZSTD_inBuffer`` and ``ZSTD_outBuffer``, which share one layout."""

    _fields_ = [("data", ctypes.c_void_p), ("size", ctypes.c_size_t), ("pos", ctypes.c_size_t)]


def _load_libzstd() -> Optional[Tuple[Decode, Encode]]:
    """Both directions over the system's libzstd, or None when it is missing."""
    for name in ("libzstd.so.1", "libzstd.so", "libzstd.1.dylib"):
        try:
            lib = ctypes.CDLL(name)
            version = lib.ZSTD_versionNumber
            create_cctx, free_cctx = lib.ZSTD_createCCtx, lib.ZSTD_freeCCtx
            create_dctx, free_dctx = lib.ZSTD_createDCtx, lib.ZSTD_freeDCtx
            set_parameter = lib.ZSTD_CCtx_setParameter
            reset = lib.ZSTD_CCtx_reset
            pledge = lib.ZSTD_CCtx_setPledgedSrcSize
            compress = lib.ZSTD_compressStream2
            decompress = lib.ZSTD_decompressDCtx
            content_size = lib.ZSTD_getFrameContentSize
            frame_size = lib.ZSTD_findFrameCompressedSize
            is_error = lib.ZSTD_isError
            error_name = lib.ZSTD_getErrorName
            break
        except (OSError, AttributeError):
            continue
    else:
        return None
    version.restype = ctypes.c_uint
    version.argtypes = []
    if version() < 10400:  # ZSTD_compressStream2 and its parameters are stable from 1.4.0
        return None
    for create, free in ((create_cctx, free_cctx), (create_dctx, free_dctx)):
        create.restype = ctypes.c_void_p
        create.argtypes = []
        free.restype = ctypes.c_size_t
        free.argtypes = [ctypes.c_void_p]
    set_parameter.restype = ctypes.c_size_t
    set_parameter.argtypes = [ctypes.c_void_p, ctypes.c_int, ctypes.c_int]
    reset.restype = ctypes.c_size_t
    reset.argtypes = [ctypes.c_void_p, ctypes.c_int]
    pledge.restype = ctypes.c_size_t
    pledge.argtypes = [ctypes.c_void_p, ctypes.c_ulonglong]
    compress.restype = ctypes.c_size_t
    compress.argtypes = [
        ctypes.c_void_p, ctypes.POINTER(_ZstdBuffer), ctypes.POINTER(_ZstdBuffer), ctypes.c_int,
    ]
    decompress.restype = ctypes.c_size_t
    decompress.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_void_p, ctypes.c_size_t,
    ]
    content_size.restype = ctypes.c_ulonglong
    frame_size.restype = ctypes.c_size_t
    for probe in (content_size, frame_size):
        probe.argtypes = [ctypes.c_void_p, ctypes.c_size_t]
    is_error.restype = ctypes.c_uint
    is_error.argtypes = [ctypes.c_size_t]
    error_name.restype = ctypes.c_char_p
    error_name.argtypes = [ctypes.c_size_t]

    class Context:
        """One thread's zstd (de)compression context."""

        def __init__(self, create, free) -> None:
            self.free = free  # before the check: freeing NULL is a no-op
            self.handle = create()
            if not self.handle:
                raise MemoryError("libzstd could not allocate a context")

        def __del__(self) -> None:
            self.free(self.handle)

    def compressor() -> int:
        context = getattr(_local, "cctx", None)
        if context is None:
            context = Context(create_cctx, free_cctx)
            for parameter, value in (
                (_ZSTD_C_LEVEL, _LEVEL),
                (_ZSTD_C_STRATEGY, _ZSTD_DFAST),
                (_ZSTD_C_CHECKSUM, 1),
            ):
                if is_error(set_parameter(context.handle, parameter, value)):
                    raise HeavenError(f"libzstd rejected parameter {parameter}={value}")
            _local.cctx = context
        return context.handle

    def decompressor() -> int:
        context = getattr(_local, "dctx", None)
        if context is None:
            context = _local.dctx = Context(create_dctx, free_dctx)
        return context.handle

    def encode(planes: np.ndarray, limit: int) -> bytes:
        """One frame of two blocks: the low-order planes, then the
        high-order ones (sign, exponent, top mantissa bits), each block
        with its own literal and sequence tables.  Plain level 1, one set
        of tables over all planes, writes a larger frame than DEFLATE-6
        over a quantised float32 tile's interleaved cells (39 435 B
        against 39 035 B); the split and the double-fast strategy make it
        38 555 B for 10-20 % more encode time.  A block per plane would
        compress the e2e benchmark's float noise tiles just past the 1/16
        rule, and every read of them would then decode instead of taking
        a view (EXPERIMENTS A4)."""
        context = compressor()
        # a new frame, whose header declares the tile's size
        reset(context, _ZSTD_RESET_SESSION)
        pledge(context, planes.nbytes)
        out = np.empty(limit, np.uint8)
        sink = _ZstdBuffer(out.ctypes.data, limit, 0)
        address, middle = planes.ctypes.data, len(planes) // 2 * planes.shape[1]
        for start, end, directive in (
            (0, middle, _ZSTD_E_FLUSH), (middle, planes.nbytes, _ZSTD_E_END)
        ):
            # anything but 0 is an error or output left over: the frame
            # does not fit in *limit* bytes; ctypes releases the GIL
            if compress(context, sink, _ZstdBuffer(address + start, end - start, 0), directive):
                return b""
        return out[: sink.pos].tobytes()

    def decode(src: memoryview, dest: memoryview) -> None:
        if len(src) < 5 or bytes(src[:4]) != _ZSTD_MAGIC:
            raise HeavenError("corrupt zstd frame: bad magic number")
        if not src[4] & _ZSTD_CHECKSUM_FLAG:
            raise HeavenError("corrupt zstd frame: no content checksum")
        address = _address(src)
        declared = content_size(address, len(src))
        if declared != len(dest):
            # also the two error values, both far above any tile's size
            raise HeavenError(
                f"corrupt zstd frame: content size {declared}, expected {len(dest)} B"
            )
        framed = frame_size(address, len(src))
        if is_error(framed):
            raise HeavenError("corrupt zstd frame: truncated or broken")
        if framed != len(src):
            raise HeavenError(
                f"corrupt zstd frame: {len(src) - framed} B after the frame"
            )
        # checks the content size and the checksum; ctypes releases the GIL
        produced = decompress(decompressor(), _address(dest), len(dest), address, len(src))
        if is_error(produced):
            raise HeavenError(
                f"corrupt zstd frame: {error_name(produced).decode(errors='replace')}"
            )
        if produced != len(dest):  # pragma: no cover - the content size is checked
            raise HeavenError(f"decompressed to {produced} B, expected {len(dest)} B")

    return decode, encode


#: every encoder this host has, by name: (frame marker, encoder)
_ENCODERS: Dict[str, Tuple[int, Encode]] = {"zlib": (_Z_DEFLATE, _zlib_deflate)}
#: the decoder of each compressed frame this host reads, by marker
_DECODERS: Dict[int, Decode] = {_Z_DEFLATE: _zlib_inflate}
_libzstd = _load_libzstd()
if _libzstd is not None:
    _DECODERS[_Z_ZSTD], _zstd_encode = _libzstd
    _ENCODERS["zstd"] = (_Z_ZSTD, _zstd_encode)
#: the encoder ZlibCodec writes new frames with, chosen once at import:
#: "zstd" when the system libzstd loads, else "zlib"
ENCODER = "zstd" if _libzstd is not None else "zlib"
_encoder: Tuple[int, Encode] = _ENCODERS[ENCODER]


def _scratch(size: int) -> memoryview:
    """This thread's planes buffer, *size* bytes of it (grown, never shrunk)."""
    buffer = getattr(_local, "scratch", None)
    if buffer is None or len(buffer) < size:
        buffer = _local.scratch = np.empty(size, np.uint8)
    return memoryview(buffer)[:size]


class ZlibCodec(Codec):
    """Byte planes + an entropy coder (stand-in for the drives' hardware codecs).

    The configuration name ``"zlib"`` (and this class's name) denotes the
    compressed codec, not its backend.  A tile of *n* cells of *itemsize*
    bytes is stored as one of three frames, told apart by the first byte:

    * ``\\x02`` + ``itemsize`` (one byte) + one zstd frame (level 1,
      double-fast, in two blocks, with the content size and checksum) of
      the tile's **byte planes**: byte 0 of every cell, then byte 1 of
      every cell, and so on.  Sign/exponent bytes of coherent rasters
      repeat plane-long, so a fast level over the planes compresses
      better than a slow one over the interleaved cells, at a fraction of
      the encode time;
    * ``\\x01`` + ``itemsize`` + one level-1 DEFLATE stream of the planes:
      what a host without libzstd writes;
    * ``\\x00`` + the raw cells verbatim, when compression saves less than
      1/16 of the tile — the same fallback the zstd and LZ4 frame formats
      make: paying a full decode on every read to save a few percent of
      tape transfer is a bad trade.  Stored tiles also keep the zero-copy
      read path intact: :meth:`decompress_view` serves them as read-only
      views straight over the staged frame, no decode, no copy.

    New frames are written with the module's :data:`ENCODER`: zstd when the
    host's libzstd loads (faster per tile both ways, EXPERIMENTS A4), else
    DEFLATE through ``zlib``.  Decode reads the frame in place and writes
    byte planes into a per-thread scratch buffer, then unshuffles them
    into the exact-size output; a one-byte cell decodes straight into
    it.  The frame carries everything decode needs; a damaged frame (bad
    marker or itemsize, broken or truncated stream, failed checksum,
    missing checksum or content size, trailing bytes, wrong length) raises
    :class:`~repro.errors.HeavenError`, and so does a zstd frame on a host
    without libzstd.

    The 0.6 ratio estimate matches typical scientific float rasters with
    spatial coherence; real payloads use the actual compressed size.
    """

    name = "zlib"
    estimated_ratio = 0.6

    @staticmethod
    def _frame(stored: Buffer) -> "tuple[int, memoryview]":
        view = memoryview(stored).cast("B")
        if len(view) == 0 or view[0] not in (_Z_STORED, _Z_DEFLATE, _Z_ZSTD):
            marker = view[0] if len(view) else None
            raise HeavenError(f"corrupt tile frame: bad marker {marker!r}")
        return view[0], view[1:]

    def compress(self, raw: bytes, itemsize: int = 1) -> bytes:
        if itemsize > _MAX_ITEMSIZE:
            itemsize = 1
        if itemsize < 1 or len(raw) % itemsize:
            raise HeavenError(
                f"{len(raw)} B is not a whole number of {itemsize}-byte cells"
            )
        cells = np.frombuffer(raw, np.uint8).reshape(-1, itemsize)
        planes = np.ascontiguousarray(cells.T)
        marker, encode = _encoder
        # the one place the 1/16 rule is checked: compression must save
        # more than 1/16 of the tile, else the stream does not fit and the
        # cells are stored verbatim
        packed = encode(planes, max(0, len(raw) - (len(raw) >> 4) - 1))
        if not packed:
            return b"\x00" + raw
        return bytes((marker, itemsize)) + packed

    @staticmethod
    def _decode(marker: int, body: memoryview, out: memoryview) -> None:
        """Decode a compressed frame's *body* into *out*, exactly the raw size."""
        decode = _DECODERS.get(marker)
        if decode is None:
            raise HeavenError("zstd tile frame, but libzstd is not loaded on this host")
        size = len(out)
        itemsize = body[0] if len(body) else 0
        if itemsize == 0 or size % itemsize:
            raise HeavenError(
                f"corrupt tile frame: itemsize {itemsize} for {size} B"
            )
        planes = out if itemsize == 1 else _scratch(size)
        decode(body[1:], planes)
        if itemsize > 1:
            cells = np.frombuffer(out, np.uint8).reshape(-1, itemsize)
            # one plane per column copy: 4x faster than a transposing copy
            for k, plane in enumerate(np.frombuffer(planes, np.uint8).reshape(itemsize, -1)):
                cells[:, k] = plane

    @staticmethod
    def _stored_body(body: memoryview, expected_size: int) -> memoryview:
        if len(body) != expected_size:
            raise HeavenError(
                f"stored frame holds {len(body)} B, expected {expected_size} B"
            )
        return body.toreadonly()

    def decompress_view(self, stored: Buffer, expected_size: int) -> memoryview:
        marker, body = self._frame(stored)
        if marker == _Z_STORED:
            return self._stored_body(body, expected_size)
        out = memoryview(np.empty(expected_size, np.uint8))
        self._decode(marker, body, out)
        return out.toreadonly()

    def decodes_to_view(self, stored: Buffer) -> bool:
        return self._frame(stored)[0] == _Z_STORED

    def decompress_into(self, stored: Buffer, out: memoryview) -> int:
        out = memoryview(out).cast("B")
        if out.readonly:  # libzstd would write through the pointer regardless
            raise TypeError("cannot decode into read-only memory")
        marker, body = self._frame(stored)
        if marker == _Z_STORED:
            out[:] = self._stored_body(body, len(out))
        else:
            self._decode(marker, body, out)
        return len(out)


_CODECS = {
    "none": NoneCodec,
    "zlib": ZlibCodec,
}


def make_codec(name: str) -> Codec:
    """Instantiate a codec by configuration name."""
    try:
        return _CODECS[name.lower()]()
    except KeyError:
        raise HeavenError(
            f"unknown compression codec {name!r}; known: {sorted(_CODECS)}"
        ) from None


def codec_names() -> list:
    return sorted(_CODECS)
