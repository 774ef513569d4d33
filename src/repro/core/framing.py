"""Object framing: non-hypercube range queries (Kapitel 3.7).

Classic array DBMSs restrict range queries to one multidimensional box.
HEAVEN's *Object Framing* lets users describe complex frames — unions of
boxes, arbitrary cell masks, half-space-bounded polytopes — and evaluates
them against the tile index, fetching only tiles that truly intersect the
frame.  Against the bounding-box alternative this cuts tiles fetched and
bytes moved (experiment E11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval
from ..arrays.operations import MArray
from ..arrays.tile import Tile
from ..errors import FramingError


class Frame:
    """A region of interest that need not be a single box."""

    def bounding_box(self) -> MInterval:
        """Smallest box containing the frame."""
        raise NotImplementedError

    def mask(self, region: MInterval) -> np.ndarray:
        """Boolean array over *region*: True where the cell is in the frame."""
        raise NotImplementedError

    def intersects(self, box: MInterval) -> bool:
        """Whether any cell of *box* lies inside the frame.

        The default implementation materialises the mask of the overlap;
        subclasses override with cheaper geometry when they can.
        """
        overlap = self.bounding_box().intersection(box)
        if overlap is None:
            return False
        return bool(self.mask(overlap).any())

    @property
    def dimension(self) -> int:
        return self.bounding_box().dimension


@dataclass(frozen=True)
class BoxFrame(Frame):
    """A plain box — framing degenerates to classic trimming."""

    box: MInterval

    def bounding_box(self) -> MInterval:
        return self.box

    def mask(self, region: MInterval) -> np.ndarray:
        out = np.zeros(region.shape, dtype=bool)
        overlap = self.box.intersection(region)
        if overlap is not None:
            out[overlap.to_slices(region)] = True
        return out

    def intersects(self, box: MInterval) -> bool:
        return self.box.intersects(box)


class MultiBoxFrame(Frame):
    """Union of boxes — e.g. an L-shaped coastline query."""

    def __init__(self, boxes: Sequence[MInterval]) -> None:
        if not boxes:
            raise FramingError("a multi-box frame needs at least one box")
        dimension = boxes[0].dimension
        if any(b.dimension != dimension for b in boxes):
            raise FramingError("all frame boxes must share dimensionality")
        self.boxes = list(boxes)

    def bounding_box(self) -> MInterval:
        hull = self.boxes[0]
        for box in self.boxes[1:]:
            hull = hull.hull(box)
        return hull

    def mask(self, region: MInterval) -> np.ndarray:
        out = np.zeros(region.shape, dtype=bool)
        for box in self.boxes:
            overlap = box.intersection(region)
            if overlap is not None:
                out[overlap.to_slices(region)] = True
        return out

    def intersects(self, box: MInterval) -> bool:
        return any(b.intersects(box) for b in self.boxes)

    @classmethod
    def parse(cls, spec: str) -> "MultiBoxFrame":
        """Parse ``"0:9,0:9; 10:19,0:4"`` — the query-language frame syntax."""
        boxes = []
        for part in spec.split(";"):
            part = part.strip()
            if part:
                boxes.append(MInterval.parse(part))
        if not boxes:
            raise FramingError(f"no boxes in frame spec {spec!r}")
        return cls(boxes)


class MaskFrame(Frame):
    """Arbitrary per-cell membership given as a boolean array over a box."""

    def __init__(self, domain: MInterval, cells: np.ndarray) -> None:
        if tuple(cells.shape) != domain.shape:
            raise FramingError(
                f"mask shape {tuple(cells.shape)} != domain shape {domain.shape}"
            )
        self.domain = domain
        self.cells = cells.astype(bool)

    def bounding_box(self) -> MInterval:
        return self.domain

    def mask(self, region: MInterval) -> np.ndarray:
        out = np.zeros(region.shape, dtype=bool)
        overlap = self.domain.intersection(region)
        if overlap is not None:
            out[overlap.to_slices(region)] = self.cells[
                overlap.to_slices(self.domain)
            ]
        return out


class HalfSpaceFrame(Frame):
    """Convex polytope: cells x with ``a . x <= c`` for every half-space.

    Useful for diagonal frames (e.g. a wavefront in a simulation cube) that
    a box approximates terribly.
    """

    def __init__(
        self,
        bounding: MInterval,
        half_spaces: Sequence[Tuple[Sequence[float], float]],
    ) -> None:
        if not half_spaces:
            raise FramingError("a half-space frame needs at least one constraint")
        for coefficients, _limit in half_spaces:
            if len(coefficients) != bounding.dimension:
                raise FramingError("half-space coefficient dimensionality mismatch")
        self.bounding = bounding
        self.half_spaces = [
            (np.asarray(c, dtype=np.float64), float(limit))
            for c, limit in half_spaces
        ]

    def bounding_box(self) -> MInterval:
        return self.bounding

    def mask(self, region: MInterval) -> np.ndarray:
        coords = np.meshgrid(
            *(np.arange(a.lo, a.hi + 1, dtype=np.float64) for a in region.axes),
            indexing="ij",
        )
        out = np.ones(region.shape, dtype=bool)
        inside_box = self.bounding.intersection(region)
        if inside_box is None:
            return np.zeros(region.shape, dtype=bool)
        for coefficients, limit in self.half_spaces:
            value = np.zeros(region.shape, dtype=np.float64)
            for axis, coefficient in enumerate(coefficients):
                if coefficient:
                    value += coefficient * coords[axis]
            out &= value <= limit
        box_mask = np.zeros(region.shape, dtype=bool)
        box_mask[inside_box.to_slices(region)] = True
        return out & box_mask


def tiles_in_frame(mdd: MDD, frame: Frame) -> List[Tile]:
    """Tiles of *mdd* that truly intersect the frame (not just its hull)."""
    candidates = mdd.tiles_for(frame.bounding_box().intersection(mdd.domain) or mdd.domain)
    return [tile for tile in candidates if frame.intersects(tile.domain)]


def read_frame(
    mdd: MDD,
    frame: Frame,
    fill: float = 0.0,
) -> Tuple[MArray, np.ndarray]:
    """Fetch exactly the framed cells of *mdd*.

    Returns the hull-shaped array (cells outside the frame set to *fill*)
    plus the boolean membership mask, so callers can aggregate precisely
    over the frame.  Only tiles intersecting the frame are read, and only
    their overlap with the frame's bounding box is copied.
    """
    hull = frame.bounding_box().intersection(mdd.domain)
    if hull is None:
        raise FramingError("frame lies entirely outside the object domain")
    cells = np.full(hull.shape, fill, dtype=mdd.cell_type.dtype)
    for tile in tiles_in_frame(mdd, frame):
        overlap = tile.domain.intersection(hull)
        if overlap is None:
            continue
        data = mdd.read(overlap)
        cells[overlap.to_slices(hull)] = data
    membership = frame.mask(hull)
    # Cells inside the hull but outside the frame are reset to fill.
    cells = np.where(membership, cells, np.asarray(fill, dtype=cells.dtype))
    return MArray(hull, cells), membership
