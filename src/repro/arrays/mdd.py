"""MDD objects: the logical array abstraction of the array DBMS.

An :class:`MDD` (multidimensional discrete data, RasDaMan's term) couples a
spatial domain and cell type with a tiled physical representation.  Cells
can come from three places, tried in order per tile:

1. the tile's in-memory payload,
2. a *resolver* installed by the storage layer (disk BLOBs, or HEAVEN's
   cache/tape hierarchy),
3. the object's lazy :class:`~repro.arrays.cellsource.CellSource`.

This lets one code path serve in-memory arrays, disk-resident arrays and
tape-archived arrays — the transparency HEAVEN promises its users.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import DomainError, TilingError
from .celltype import CellType, DOUBLE
from .cellsource import CellSource, ZeroSource
from .index import GridIndex
from .minterval import MInterval
from .tile import Tile
from .tiling import RegularTiling

#: Resolver installed by storage layers: materialises one tile's cells.
TileResolver = Callable[["MDD", Tile], np.ndarray]


class MDD:
    """One multidimensional array object.

    Args:
        name: object name, unique within its collection.
        domain: spatial domain (inclusive bounds per axis).
        cell_type: cell base type.
        tiling: regular tiling; default tiles of 64 cells per axis.
        source: lazy cell source; defaults to zeros.
    """

    def __init__(
        self,
        name: str,
        domain: MInterval,
        cell_type: CellType = DOUBLE,
        tiling: Optional[RegularTiling] = None,
        source: Optional[CellSource] = None,
    ) -> None:
        self.name = name
        self.domain = domain
        self.cell_type = cell_type
        self.tiling = tiling if tiling is not None else RegularTiling(
            tuple(min(64, axis.extent) for axis in domain.axes)
        )
        self.source: Optional[CellSource] = source if source is not None else ZeroSource()
        self.resolver: Optional[TileResolver] = None
        #: set by the storage manager when the object is persisted
        self.oid: Optional[int] = None

        self.tiles: Dict[int, Tile] = {
            tile_id: Tile(tile_id, tile_domain, cell_type)
            for tile_id, tile_domain in enumerate(self.tiling.tile_domains(domain))
        }
        self.index = GridIndex(domain, self.tiling.tile_shape)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_array(
        cls,
        name: str,
        cells: np.ndarray,
        origin: Optional[Sequence[int]] = None,
        cell_type: Optional[CellType] = None,
        tiling: Optional[RegularTiling] = None,
    ) -> "MDD":
        """Wrap a concrete numpy array as a fully materialised MDD."""
        if cell_type is None:
            cell_type = CellType(name=str(cells.dtype), dtype=cells.dtype)
        domain = MInterval.from_shape(cells.shape, origin)
        mdd = cls(name, domain, cell_type, tiling=tiling, source=None)
        mdd.source = None
        for tile in mdd.tiles.values():
            # Snapshot, never alias: a view of the caller's (writable)
            # array would defeat the copy-on-write guard in write() and a
            # later mdd.write(...) would silently mutate the user's input.
            tile.set_payload(cells[tile.domain.to_slices(domain)].copy())
        return mdd

    # -- geometry ---------------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def shape(self) -> tuple:
        return self.domain.shape

    @property
    def size_bytes(self) -> int:
        """Logical object size: cells x cell size."""
        return self.domain.cell_count * self.cell_type.size_bytes

    def tile_count(self) -> int:
        return len(self.tiles)

    def tiles_for(self, region: MInterval) -> List[Tile]:
        """Tiles intersecting *region*, in tile-id order."""
        return [self.tiles[tile_id] for tile_id in self.index.intersecting(region)]

    # -- cell access -----------------------------------------------------------------

    def materialize_tile(self, tile: Tile) -> np.ndarray:
        """Cells of one tile, pulling from payload, resolver or source."""
        if tile.payload is not None:
            return tile.payload
        if self.resolver is not None:
            cells = self.resolver(self, tile)
        elif self.source is not None:
            cells = self.source.region(tile.domain, self.cell_type)
        else:
            raise DomainError(
                f"object {self.name!r}: tile {tile.tile_id} has no payload, "
                "resolver or source"
            )
        if tuple(cells.shape) != tile.domain.shape:
            raise DomainError(
                f"resolver/source returned shape {tuple(cells.shape)} for tile "
                f"domain {tile.domain.shape}"
            )
        return np.asarray(cells, dtype=self.cell_type.dtype)

    def read(self, region: MInterval) -> np.ndarray:
        """Assemble the cells of *region* (must lie inside the domain).

        The scatter into the result array is vectorized: slice bounds come
        from plain integer arithmetic (no per-tile interval-object
        algebra), tiles fully interior to the region assign without source
        slicing, and runs of pointer-adjacent interior tiles — the layout
        zero-copy decode produces for contiguous super-tile runs — are
        assembled in ONE strided copy instead of one assignment per tile.
        """
        if not self.domain.contains(region):
            raise DomainError(
                f"read region {region} outside object domain {self.domain}"
            )
        out = np.empty(region.shape, dtype=self.cell_type.dtype)
        self._scatter_into(out, region)
        return out

    def _scatter_into(self, out: np.ndarray, region: MInterval) -> None:
        """Copy every tile's overlap with *region* into *out* (vectorized)."""
        r_bounds = [(axis.lo, axis.hi) for axis in region.axes]
        # (cells, dst slices, src slices or None when the tile is interior)
        run: List[tuple] = []
        for tile in self.tiles_for(region):
            dst = []
            src = []
            interior = True
            for (r_lo, r_hi), t_axis in zip(r_bounds, tile.domain.axes):
                t_lo, t_hi = t_axis.lo, t_axis.hi
                o_lo = t_lo if t_lo > r_lo else r_lo
                o_hi = t_hi if t_hi < r_hi else r_hi
                dst.append(slice(o_lo - r_lo, o_hi - r_lo + 1))
                src.append(slice(o_lo - t_lo, o_hi - t_lo + 1))
                if o_lo != t_lo or o_hi != t_hi:
                    interior = False
            cells = self.materialize_tile(tile)
            entry = (cells, tuple(dst), None if interior else tuple(src))
            if run and not _extends_run(run[-1], entry):
                _flush_run(out, run)
                run.clear()
            run.append(entry)
        if run:
            _flush_run(out, run)

    def read_all(self) -> np.ndarray:
        """The whole object as one array (use only for small objects)."""
        return self.read(self.domain)

    def checked_write(self, region: MInterval, cells: np.ndarray) -> np.ndarray:
        """The checks of :meth:`write`: *cells* as this object's cell type,
        or :class:`DomainError`."""
        if not self.domain.contains(region):
            raise DomainError(
                f"write region {region} outside object domain {self.domain}"
            )
        cells = np.asarray(cells, dtype=self.cell_type.dtype)
        if tuple(cells.shape) != region.shape:
            raise DomainError(
                f"write: cells shape {tuple(cells.shape)} != region {region.shape}"
            )
        return cells

    def write(self, region: MInterval, cells: np.ndarray) -> None:
        """Overwrite the cells of *region* across all affected tiles."""
        cells = self.checked_write(region, cells)
        for tile in self.tiles_for(region):
            if tile.payload is None:
                materialized = self.materialize_tile(tile)
                if not materialized.flags.writeable:
                    # Resolver handed out a frozen cache array: mutating it
                    # in place would corrupt the cache, so take a copy.
                    materialized = materialized.copy()
                tile.set_payload(materialized)
            elif not tile.payload.flags.writeable:
                tile.set_payload(tile.payload.copy())
            overlap = tile.domain.intersection(region)
            assert overlap is not None
            tile.write(overlap, cells[overlap.to_slices(region)])

    def materialize_all(self) -> None:
        """Force every tile's payload into memory."""
        for tile in self.tiles.values():
            if tile.payload is None:
                tile.set_payload(self.materialize_tile(tile))

    def drop_payloads(self) -> None:
        """Release all in-memory cells (re-readable via resolver/source)."""
        for tile in self.tiles.values():
            tile.drop_payload()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MDD({self.name!r}, [{self.domain}], {self.cell_type.name}, "
            f"{self.tile_count()} tiles)"
        )


def _extends_run(prev: tuple, entry: tuple) -> bool:
    """Can *entry* join *prev*'s merged scatter run?

    A run is a sequence of tiles that are (a) fully interior to the read
    region, (b) adjacent along the last (fastest-varying) axis in array
    space, and (c) **pointer-adjacent in memory** — true for read-only
    decode views over one contiguous super-tile segment run.  Such a run
    scatters with one strided copy in :func:`_flush_run`.
    """
    p_cells, p_dst, p_src = prev
    c_cells, c_dst, c_src = entry
    if p_src is not None or c_src is not None:
        return False  # clipped tiles scatter individually
    if p_cells.shape != c_cells.shape or p_cells.dtype != c_cells.dtype:
        return False
    if not (p_cells.flags.c_contiguous and c_cells.flags.c_contiguous):
        return False
    if c_cells.ctypes.data != p_cells.ctypes.data + p_cells.nbytes:
        return False
    if p_dst[:-1] != c_dst[:-1]:
        return False
    return c_dst[-1].start == p_dst[-1].stop


def _flush_run(out: np.ndarray, run: List[tuple]) -> None:
    """Scatter one run of tiles into *out*.

    Single tiles assign directly (interior ones without source slicing);
    a merged run of ``m`` pointer-adjacent tiles becomes ONE strided
    copy: the source is a ``(lead..., m, c)`` strided view spanning all
    ``m`` tile buffers, the destination the matching split of the
    region's last axis — both guaranteed views by construction (axis
    splits never need a copy).
    """
    if len(run) == 1:
        cells, dst, src = run[0]
        out[dst] = cells if src is None else cells[src]
        return
    as_strided = np.lib.stride_tricks.as_strided
    first, first_dst, _src = run[0]
    m = len(run)
    c = first.shape[-1]
    src_view = as_strided(
        first,
        shape=first.shape[:-1] + (m, c),
        strides=first.strides[:-1] + (first.nbytes, first.strides[-1]),
        writeable=False,
    )
    merged_last = slice(first_dst[-1].start, run[-1][1][-1].stop)
    dst_view = out[first_dst[:-1] + (merged_last,)]
    dst_split = as_strided(
        dst_view,
        shape=dst_view.shape[:-1] + (m, c),
        strides=dst_view.strides[:-1]
        + (c * dst_view.strides[-1], dst_view.strides[-1]),
    )
    dst_split[...] = src_view


class Collection:
    """A named set of MDD objects (RasDaMan collection)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._objects: Dict[str, MDD] = {}

    def add(self, mdd: MDD) -> MDD:
        if mdd.name in self._objects:
            raise TilingError(
                f"collection {self.name!r} already holds object {mdd.name!r}"
            )
        self._objects[mdd.name] = mdd
        return mdd

    def remove(self, name: str) -> MDD:
        try:
            return self._objects.pop(name)
        except KeyError:
            raise DomainError(
                f"object {name!r} not in collection {self.name!r}"
            ) from None

    def get(self, name: str) -> MDD:
        try:
            return self._objects[name]
        except KeyError:
            raise DomainError(
                f"object {name!r} not in collection {self.name!r}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._objects)

    def objects(self) -> List[MDD]:
        return [self._objects[n] for n in self.names()]

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, name: str) -> bool:
        return name in self._objects

    def __iter__(self):
        return iter(self.objects())
