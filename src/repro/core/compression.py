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

``Heaven._frames`` is the one place that chooses between the two, tile by
tile, from whether the source bytes are there.

A :class:`ZlibCodec` frame is either the tile's cells verbatim behind a
``\\x00`` marker, or ``\\x01``, the cell size in bytes, and one level-1
DEFLATE stream of the tile's byte planes (see the class for why).  The
frame is self-describing: decode needs only the frame and the tile's size.

Each tile frame is encoded **once per content version**: ``archive``
encodes every tile in one batch and exports those frames, and ``update``
re-encodes only the tiles its region touches, carrying the other frames
of a rewritten super-tile over verbatim from the old segment.  A batch
(:meth:`Codec.compress_all`) runs on a small module-level thread pool —
both encoders release the GIL while they deflate, so tiles compress in
parallel on the host.

Both directions run through the system's **libdeflate** when it loads
(:data:`DEFLATER` and :data:`INFLATER` say which backends were picked at
import), and through the standard ``zlib`` module otherwise.  The frames
therefore depend on the host's encoder: libdeflate and ``zlib`` at level 1
write different (and differently sized) DEFLATE streams of the same tile.
Decode is portable: every frame is one standard zlib stream, so either
backend reads frames written by either, and a segment may hold both.

(De)compression CPU time is not charged on the virtual clock, pooled or
not: the modelled drives compress in hardware at line speed, as DLT/LTO
drives do.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import HeavenError

#: anything the zero-copy read path may hand a codec: staged segment bytes
#: or a ``memoryview`` slice of them (no intermediate ``bytes`` copies).
Buffer = Union[bytes, bytearray, memoryview]

#: upper bound on encode threads: enough to use a small host's cores,
#: few enough that a batch never floods a shared machine
_MAX_ENCODE_WORKERS = 4
_encode_executor: Optional[ThreadPoolExecutor] = None
_encode_lock = threading.Lock()


def _encode_pool() -> Optional[ThreadPoolExecutor]:
    """The shared encode pool, created on first use; None on one-CPU hosts."""
    global _encode_executor
    workers = min(_MAX_ENCODE_WORKERS, os.cpu_count() or 1)
    if workers < 2:
        return None
    with _encode_lock:
        if _encode_executor is None:
            _encode_executor = ThreadPoolExecutor(
                workers, thread_name_prefix="repro-encode"
            )
        return _encode_executor


def _forget_encode_pool() -> None:
    # A forked child inherits the pool object but none of its threads, and
    # the lock in whatever state another thread left it.
    global _encode_executor, _encode_lock
    _encode_executor = None
    _encode_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_encode_pool)


class Codec:
    """Compression codec interface.

    Besides the classic ``compress``/``decompress`` pair, codecs expose
    two zero-copy entry points:

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
        """Frames of *raws* in input order.

        Byte-identical to ``[self.compress(raw, itemsize) for raw in raws]``;
        batches of two or more map :meth:`compress` over the shared encode
        pool.
        """
        pool = _encode_pool() if len(raws) > 1 else None
        if pool is None:
            return [self.compress(raw, itemsize) for raw in raws]
        return list(pool.map(self.compress, raws, itertools.repeat(itemsize)))

    def estimated_size(self, logical_size: int) -> int:
        """Size-only accounting: bytes a tile of *logical_size* occupies on
        tape (never zero)."""
        return max(1, int(logical_size * self.estimated_ratio))

    def decompress(self, stored: bytes, expected_size: int) -> bytes:
        raise NotImplementedError

    def decompress_view(self, stored: Buffer, expected_size: int) -> memoryview:
        """Read-only view of the raw bytes behind *stored*.

        The default materialises via :meth:`decompress`; codecs that can
        serve the raw cells without copying override this (see
        :class:`NoneCodec`).  The returned view is always read-only, so
        ``np.frombuffer`` over it yields a non-writable array.
        """
        raw = self.decompress(bytes(stored), expected_size)
        return memoryview(raw).toreadonly()

    def decodes_to_view(self, stored: Buffer) -> bool:
        """Whether :meth:`decompress_view` serves *stored* as a view over
        its own bytes — no decode work, so the cells are free to rebuild."""
        return False

    def decompress_into(self, stored: Buffer, out: memoryview) -> int:
        """Decompress *stored* into the writable buffer *out*.

        Returns the number of raw bytes written.  *out* is measured in
        bytes, whatever its item format.  Raises
        :class:`~repro.errors.HeavenError` when *out* is not the raw size.
        The default routes through :meth:`decompress`; codecs that can
        decode in place override this to skip the intermediate allocation.
        """
        out = memoryview(out).cast("B")
        raw = self.decompress(bytes(stored), len(out))
        if len(raw) > len(out):  # pragma: no cover - decompress validates
            raise HeavenError(
                f"decompressed {len(raw)} B exceed output buffer of "
                f"{len(out)} B"
            )
        out[: len(raw)] = raw
        return len(raw)


class NoneCodec(Codec):
    """Identity codec (the default)."""

    name = "none"
    estimated_ratio = 1.0

    def compress(self, raw: bytes, itemsize: int = 1) -> bytes:
        return raw

    def compress_all(self, raws: Sequence[bytes], itemsize: int = 1) -> List[bytes]:
        return list(raws)  # nothing to parallelise

    def decompress(self, stored: bytes, expected_size: int) -> bytes:
        if len(stored) != expected_size:
            raise HeavenError(
                f"stored size {len(stored)} != expected {expected_size} "
                "for uncompressed data"
            )
        return stored

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
#: DEFLATE level of every shuffled frame: on byte planes, level 1 beats
#: level 6 on the interleaved cells in ratio and encodes ~7x faster
#: (EXPERIMENTS A4)
_LEVEL = 1
#: widest cell split into byte planes (the frame header holds one byte);
#: wider cells deflate unshuffled, as one plane
_MAX_ITEMSIZE = 255

# Inflate backends.  Each inflates one zlib stream into a writable buffer
# and reports the way ``libdeflate_zlib_decompress_ex`` does:
# ``(status, bytes consumed, bytes produced)``, with the byte counts only
# meaningful on success.  ZlibCodec._inflate makes every check on that.
_SUCCESS = 0  # the stream ended; the counts are valid
_BAD_DATA = 1  # broken or truncated stream, bad header or Adler-32
_INSUFFICIENT_SPACE = 3  # the stream inflates past the buffer
Inflate = Callable[[memoryview, memoryview], Tuple[int, int, int]]
# Deflate backends.  Each deflates a buffer at level 1 into one zlib stream
# of at most *limit* bytes, the way ``libdeflate_zlib_compress`` does, and
# returns ``b""`` when the stream does not fit.
Deflate = Callable[[memoryview, int], bytes]

#: per-thread codec state: libdeflate's (de)compressor (neither is
#: thread-safe) and the scratch buffer byte planes inflate into before the
#: unshuffle
_local = threading.local()


def _zlib_inflate(src: memoryview, dest: memoryview) -> Tuple[int, int, int]:
    """The reference backend: the standard ``zlib`` module."""
    inflater = zlib.decompressobj()
    try:
        # one byte past *dest* bounds a hostile stream and still shows it
        # overflows
        data = inflater.decompress(src, len(dest) + 1)
    except zlib.error:
        return _BAD_DATA, 0, 0
    if len(data) > len(dest):
        return _INSUFFICIENT_SPACE, 0, 0
    if not inflater.eof:
        return _BAD_DATA, 0, 0
    dest[: len(data)] = data
    return _SUCCESS, len(src) - len(inflater.unused_data), len(data)


def _zlib_deflate(src: memoryview, limit: int) -> bytes:
    """The fallback encoder: the standard ``zlib`` module."""
    packed = zlib.compress(src, _LEVEL)
    return packed if len(packed) <= limit else b""


def _address(buffer: memoryview) -> int:
    # a pointer into *buffer* without copying it, read-only buffers too
    return np.frombuffer(buffer, np.uint8).ctypes.data


def _load_libdeflate() -> Optional[Tuple[Inflate, Deflate]]:
    """Both backends over the system's libdeflate, or None when it is missing."""
    for name in ("libdeflate.so.0", "libdeflate.so", "libdeflate.0.dylib"):
        try:
            lib = ctypes.CDLL(name)
            decompress = lib.libdeflate_zlib_decompress_ex
            alloc_decompressor = lib.libdeflate_alloc_decompressor
            free_decompressor = lib.libdeflate_free_decompressor
            compress = lib.libdeflate_zlib_compress
            alloc_compressor = lib.libdeflate_alloc_compressor
            free_compressor = lib.libdeflate_free_compressor
            break
        except (OSError, AttributeError):
            continue
    else:
        return None
    size_p = ctypes.POINTER(ctypes.c_size_t)
    alloc_decompressor.restype = ctypes.c_void_p
    alloc_decompressor.argtypes = []
    alloc_compressor.restype = ctypes.c_void_p
    alloc_compressor.argtypes = [ctypes.c_int]
    for free in (free_decompressor, free_compressor):
        free.restype = None
        free.argtypes = [ctypes.c_void_p]
    decompress.restype = ctypes.c_int
    decompress.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_void_p, ctypes.c_size_t, size_p, size_p,
    ]
    compress.restype = ctypes.c_size_t
    compress.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t,
        ctypes.c_void_p, ctypes.c_size_t,
    ]

    class Decompressor:
        """One thread's libdeflate decompressor and its two out-counts."""

        def __init__(self) -> None:
            self.handle = alloc_decompressor()
            if not self.handle:
                raise MemoryError("libdeflate_alloc_decompressor failed")
            self.consumed = ctypes.c_size_t()
            self.produced = ctypes.c_size_t()

        def __del__(self) -> None:
            free_decompressor(self.handle)

    class Compressor:
        """One thread's level-1 libdeflate compressor."""

        def __init__(self) -> None:
            self.handle = alloc_compressor(_LEVEL)
            if not self.handle:
                raise MemoryError("libdeflate_alloc_compressor failed")

        def __del__(self) -> None:
            free_compressor(self.handle)

    def inflate(src: memoryview, dest: memoryview) -> Tuple[int, int, int]:
        state = getattr(_local, "decompressor", None)
        if state is None:
            state = _local.decompressor = Decompressor()
        # ctypes releases the GIL for the call
        status = decompress(
            state.handle, _address(src), len(src), _address(dest), len(dest),
            ctypes.byref(state.consumed), ctypes.byref(state.produced),
        )
        return status, state.consumed.value, state.produced.value

    def deflate(src: memoryview, limit: int) -> bytes:
        state = getattr(_local, "compressor", None)
        if state is None:
            state = _local.compressor = Compressor()
        out = np.empty(limit, np.uint8)
        # 0 when the stream does not fit in *limit* bytes; ctypes releases
        # the GIL for the call
        size = compress(state.handle, _address(src), len(src), out.ctypes.data, limit)
        return out[:size].tobytes()

    return inflate, deflate


#: every inflate and deflate backend this host has, by name
_INFLATERS = {"zlib": _zlib_inflate}
_DEFLATERS = {"zlib": _zlib_deflate}
_libdeflate = _load_libdeflate()
if _libdeflate is not None:
    _INFLATERS["libdeflate"], _DEFLATERS["libdeflate"] = _libdeflate
#: the backends ZlibCodec decodes and encodes with, chosen once at import:
#: "libdeflate" when the system library loads, else "zlib"
INFLATER = DEFLATER = "libdeflate" if _libdeflate is not None else "zlib"
_inflate_stream: Inflate = _INFLATERS[INFLATER]
_deflate_stream: Deflate = _DEFLATERS[DEFLATER]


def _scratch(size: int) -> memoryview:
    """This thread's planes buffer, *size* bytes of it (grown, never shrunk)."""
    buffer = getattr(_local, "scratch", None)
    if buffer is None or len(buffer) < size:
        buffer = _local.scratch = np.empty(size, np.uint8)
    return memoryview(buffer)[:size]


class ZlibCodec(Codec):
    """DEFLATE over byte planes (stand-in for the drives' hardware codecs).

    A tile of *n* cells of *itemsize* bytes is stored as one of two frames,
    told apart by the first byte:

    * ``\\x01`` + ``itemsize`` (one byte) + one DEFLATE stream (level 1) of
      the tile's **byte planes**: byte 0 of every cell, then byte 1 of every
      cell, and so on.  Sign/exponent bytes of coherent rasters repeat
      plane-long, so level 1 over the planes compresses better than level
      6 over the interleaved cells, at a fraction of the encode time;
    * ``\\x00`` + the raw cells verbatim, when DEFLATE saves less than
      1/16 of the tile — the same fallback the zstd and LZ4 frame formats
      make: paying a full inflate on every read to save a few percent of
      tape transfer is a bad trade.  Stored tiles also keep the zero-copy
      read path intact: :meth:`decompress_view` serves them as read-only
      views straight over the staged frame, no inflate, no copy.

    Frames are deflated with the module's :data:`DEFLATER` and inflated
    with its :data:`INFLATER` — libdeflate when the host has it (faster per
    tile both ways, EXPERIMENTS A4), ``zlib`` otherwise.  Frame
    bytes depend on the host's encoder; decode does not: any frame either
    encoder wrote inflates on either backend.  Inflate reads the frame in place and writes
    byte planes into a per-thread scratch buffer, then unshuffles them
    into the exact-size output; a one-byte cell inflates straight into
    it.  The frame carries everything decode needs; a damaged frame (bad
    marker or itemsize, broken or truncated stream, bad Adler-32, trailing
    bytes, wrong length) raises :class:`~repro.errors.HeavenError` with
    either backend.

    The 0.6 ratio estimate matches typical scientific float rasters with
    spatial coherence; real payloads use the actual compressed size.
    """

    name = "zlib"
    estimated_ratio = 0.6

    @staticmethod
    def _frame(stored: Buffer) -> "tuple[int, memoryview]":
        view = memoryview(stored).cast("B")
        if len(view) == 0 or view[0] not in (_Z_STORED, _Z_DEFLATE):
            marker = view[0] if len(view) else None
            raise HeavenError(f"corrupt zlib frame: bad marker {marker!r}")
        return view[0], view[1:]

    def compress(self, raw: bytes, itemsize: int = 1) -> bytes:
        if itemsize > _MAX_ITEMSIZE:
            itemsize = 1
        if itemsize < 1 or len(raw) % itemsize:
            raise HeavenError(
                f"{len(raw)} B is not a whole number of {itemsize}-byte cells"
            )
        cells = np.frombuffer(raw, np.uint8).reshape(-1, itemsize)
        planes = memoryview(np.ascontiguousarray(cells.T).ravel())
        # the one place the 1/16 rule is checked: DEFLATE must save more
        # than 1/16 of the tile, else the stream does not fit and the cells
        # are stored verbatim
        packed = _deflate_stream(planes, max(0, len(raw) - (len(raw) >> 4) - 1))
        if not packed:
            return b"\x00" + raw
        return bytes((_Z_DEFLATE, itemsize)) + packed

    @staticmethod
    def _inflate(body: memoryview, out: memoryview) -> None:
        """Decode a DEFLATE frame's *body* into *out*, exactly the raw size."""
        size = len(out)
        itemsize = body[0] if len(body) else 0
        if itemsize == 0 or size % itemsize:
            raise HeavenError(
                f"corrupt zlib frame: itemsize {itemsize} for {size} B"
            )
        stream = body[1:]
        planes = out if itemsize == 1 else _scratch(size)
        status, consumed, produced = _inflate_stream(stream, planes)
        if status == _INSUFFICIENT_SPACE:
            raise HeavenError(f"corrupt zlib frame: inflates past {size} B")
        if status != _SUCCESS:
            raise HeavenError(
                "corrupt zlib frame: broken or truncated stream, bad header "
                "or bad Adler-32"
            )
        if consumed != len(stream):
            raise HeavenError(
                f"corrupt zlib frame: {len(stream) - consumed} B after the stream"
            )
        if produced != size:
            raise HeavenError(f"decompressed to {produced} B, expected {size} B")
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

    def decompress(self, stored: bytes, expected_size: int) -> bytes:
        return bytes(self.decompress_view(stored, expected_size))

    def decompress_view(self, stored: Buffer, expected_size: int) -> memoryview:
        marker, body = self._frame(stored)
        if marker == _Z_STORED:
            return self._stored_body(body, expected_size)
        out = memoryview(np.empty(expected_size, np.uint8))
        self._inflate(body, out)
        return out.toreadonly()

    def decodes_to_view(self, stored: Buffer) -> bool:
        return self._frame(stored)[0] == _Z_STORED

    def decompress_into(self, stored: Buffer, out: memoryview) -> int:
        out = memoryview(out).cast("B")
        marker, body = self._frame(stored)
        if marker == _Z_STORED:
            out[:] = self._stored_body(body, len(out))
        else:
            self._inflate(body, out)
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
