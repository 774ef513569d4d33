"""Deterministic lazy cell generators.

An MDD in this reproduction may *declare* a domain far larger than RAM (the
paper's objects reach hundreds of GB).  Tiles only materialise their cells
when actually read, and they do so through a :class:`CellSource` — a pure
function of the requested region — so the same region always yields the same
bytes no matter when, or through which cache level, it is read.  That is the
property end-to-end fidelity tests rely on.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Callable, Sequence

import numpy as np

from .celltype import CellType
from .minterval import MInterval


class CellSource:
    """Produces the cell values of any sub-region of an object's domain."""

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        """Materialise the cells of *domain*; shape == domain.shape."""
        raise NotImplementedError


class ZeroSource(CellSource):
    """All cells zero — the cheapest possible source."""

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        return np.zeros(domain.shape, dtype=cell_type.dtype)


class ConstantSource(CellSource):
    """Every cell holds the same scalar value."""

    def __init__(self, value: float) -> None:
        self.value = value

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        return np.full(domain.shape, self.value, dtype=cell_type.dtype)


class HashedNoiseSource(CellSource):
    """Deterministic pseudo-random field, seeded per absolute coordinate block.

    Values depend only on (seed, region origin-aligned blocks), so any two
    reads of overlapping regions agree on the overlap.  Implemented by
    seeding numpy's Generator from a SHA-256 of (seed, block origin) for
    each aligned block of the requested region.
    """

    BLOCK = 64  # cells per axis per deterministic block

    def __init__(self, seed: int, low: float = 0.0, high: float = 1.0) -> None:
        self.seed = seed
        self.low = low
        self.high = high

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        out = np.empty(domain.shape, dtype=np.float64)
        block = self.BLOCK
        # Iterate absolute-coordinate-aligned blocks; every cell's value is
        # its position in the FULL block's draw, so the random layout is
        # identical no matter which sub-region of the block a read requests.
        block_ranges = [
            range(axis.lo // block, axis.hi // block + 1) for axis in domain.axes
        ]
        for block_coords in itertools.product(*block_ranges):
            origin = [c * block for c in block_coords]
            full = MInterval.of(*((o, o + block - 1) for o in origin))
            overlap = full.intersection(domain)
            if overlap is None:
                continue
            rng = np.random.default_rng(self._block_seed(tuple(origin)))
            out[overlap.to_slices(domain)] = self._block_cells(
                rng, overlap.to_slices(full)
            )
        if cell_type.dtype.fields is not None:
            struct = np.zeros(domain.shape, dtype=cell_type.dtype)
            for name in cell_type.dtype.names or ():
                struct[name] = out.astype(cell_type.dtype[name])
            return struct
        return out.astype(cell_type.dtype)

    def _block_cells(self, rng: np.random.Generator, local: tuple) -> np.ndarray:
        """``rng.uniform(low, high, (BLOCK,) * d)[local]`` without the full draw.

        A block is drawn in C order, one PCG64 step per cell, so ``advance``
        skips exactly the cells a read does not need (a 4-D block is 16.8 M
        doubles; a tile wants a few thousand).  Per index combination of
        the leading axes, one contiguous slab is drawn: the second-to-last
        axis' wanted rows, each a full last-axis row.
        """
        block = self.BLOCK
        # A 1-D block is a single row.
        *lead, rows, columns = (slice(0, 1),) * (2 - len(local)) + tuple(local)
        cells = np.empty([s.stop - s.start for s in (*lead, rows, columns)])
        position = 0
        for index in np.ndindex(*(s.stop - s.start for s in lead)):
            start = 0
            for offset, wanted in zip(index, lead):
                start = start * block + wanted.start + offset
            start = (start * block + rows.start) * block
            rng.bit_generator.advance(start - position)
            slab = rng.uniform(
                self.low, self.high, size=(rows.stop - rows.start, block)
            )
            position = start + slab.size
            cells[index] = slab[:, columns]
        return cells.reshape([s.stop - s.start for s in local])

    def _block_seed(self, origin: Sequence[int]) -> int:
        digest = hashlib.sha256(
            (str(self.seed) + ":" + ",".join(map(str, origin))).encode()
        ).digest()
        return int.from_bytes(digest[:8], "little")


class QuantizedSource(CellSource):
    """Rounds another source's values to a fixed measurement precision.

    Real instruments deliver finite precision (a thermometer reads in
    steps of 0.25 K, a radiometer in digital counts); quantisation is also
    what makes archived scientific data compressible.  Values become
    ``round(x / step) * step``.
    """

    def __init__(self, inner: CellSource, step: float) -> None:
        if step <= 0:
            raise ValueError(f"quantisation step must be positive: {step}")
        self.inner = inner
        self.step = step

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        cells = self.inner.region(domain, cell_type)
        if cell_type.dtype.fields is not None or not np.issubdtype(
            cells.dtype, np.floating
        ):
            return cells  # integer/struct types are already quantised
        return (np.round(cells / self.step) * self.step).astype(cells.dtype)


class FunctionSource(CellSource):
    """Cells computed from absolute coordinates by a vectorised function.

    The callable receives one ``int64`` coordinate array per dimension
    (broadcast like ``numpy.meshgrid(indexing="ij")``) and returns the cell
    values.  Workload generators use this for physically plausible fields
    (temperature by latitude/height/season etc.).
    """

    def __init__(self, fn: Callable[..., np.ndarray]) -> None:
        self.fn = fn

    def region(self, domain: MInterval, cell_type: CellType) -> np.ndarray:
        coords = np.meshgrid(
            *(np.arange(a.lo, a.hi + 1, dtype=np.int64) for a in domain.axes),
            indexing="ij",
        )
        values = self.fn(*coords)
        return np.asarray(values).astype(cell_type.dtype, copy=False)
