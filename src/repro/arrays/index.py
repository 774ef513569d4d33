"""Multidimensional tile indexes (Kapitel 2.5.4).

Two implementations behind one interface:

* :class:`GridIndex` — O(1) directory for regular tilings: tile ids are a
  pure function of grid coordinates (RasDaMan's *regular computed index*).
* :class:`RTreeIndex` — dynamic R-tree with quadratic split for arbitrary
  tile sets (RasDaMan's *RPT index* role), used by directional/aligned
  tilings where tile shapes vary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DomainError, TilingError
from .minterval import MInterval


class TileIndex:
    """Maps spatial regions to the tile ids intersecting them."""

    def insert(self, tile_id: int, domain: MInterval) -> None:
        raise NotImplementedError

    def intersecting(self, region: MInterval) -> List[int]:
        """Tile ids whose domains intersect *region*, ascending."""
        raise NotImplementedError

    def domain_of(self, tile_id: int) -> MInterval:
        raise NotImplementedError

    def all_ids(self) -> List[int]:
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.all_ids())


class GridIndex(TileIndex):
    """Computed directory for a regular tiling of a known domain.

    Tile ids must have been assigned in row-major grid order (as
    :meth:`MInterval.grid` produces them); lookups then need no search at
    all — intersecting grid coordinates are computed arithmetically.
    """

    def __init__(self, domain: MInterval, tile_shape: Sequence[int]) -> None:
        if len(tile_shape) != domain.dimension:
            raise TilingError("tile shape dimensionality mismatch")
        self.domain = domain
        self.tile_shape = tuple(int(e) for e in tile_shape)
        self._counts = tuple(
            -(-axis.extent // extent)  # ceil division
            for axis, extent in zip(domain.axes, self.tile_shape)
        )
        self._tiles: Dict[int, MInterval] = {}

    @property
    def grid_counts(self) -> Tuple[int, ...]:
        """Number of tiles along each axis."""
        return self._counts

    def insert(self, tile_id: int, domain: MInterval) -> None:
        expected = self._domain_for(tile_id)
        if expected != domain:
            raise TilingError(
                f"tile {tile_id} domain {domain} does not match grid slot {expected}"
            )
        self._tiles[tile_id] = domain

    def _domain_for(self, tile_id: int) -> MInterval:
        coords = []
        remaining = tile_id
        for count in reversed(self._counts):
            coords.append(remaining % count)
            remaining //= count
        if remaining:
            raise DomainError(f"tile id {tile_id} outside grid {self._counts}")
        coords.reverse()
        axes = []
        for coordinate, extent, axis in zip(coords, self.tile_shape, self.domain.axes):
            lo = axis.lo + coordinate * extent
            hi = min(lo + extent - 1, axis.hi)
            axes.append((lo, hi))
        return MInterval.of(*axes)

    def tile_id_at(self, grid_coords: Sequence[int]) -> int:
        """Tile id of the grid cell at *grid_coords* (row-major)."""
        tile_id = 0
        for coordinate, count in zip(grid_coords, self._counts):
            if not 0 <= coordinate < count:
                raise DomainError(f"grid coordinate {grid_coords} outside {self._counts}")
            tile_id = tile_id * count + coordinate
        return tile_id

    def intersecting(self, region: MInterval) -> List[int]:
        clipped = self.domain.intersection(region)
        if clipped is None:
            return []
        ranges = []
        for axis, extent, clip in zip(self.domain.axes, self.tile_shape, clipped.axes):
            first = (clip.lo - axis.lo) // extent
            last = (clip.hi - axis.lo) // extent
            ranges.append(range(first, last + 1))
        ids = [self.tile_id_at(coords) for coords in itertools.product(*ranges)]
        return sorted(ids)

    def domain_of(self, tile_id: int) -> MInterval:
        try:
            return self._tiles[tile_id]
        except KeyError:
            raise DomainError(f"tile {tile_id} not in index") from None

    def all_ids(self) -> List[int]:
        return sorted(self._tiles)


@dataclass
class _Node:
    """R-tree node; leaves hold (tile_id, box) entries."""

    leaf: bool
    boxes: List[MInterval] = field(default_factory=list)
    children: List["_Node"] = field(default_factory=list)  # internal nodes
    tile_ids: List[int] = field(default_factory=list)  # leaves

    def mbr(self) -> Optional[MInterval]:
        if not self.boxes:
            return None
        box = self.boxes[0]
        for other in self.boxes[1:]:
            box = box.hull(other)
        return box


class RTreeIndex(TileIndex):
    """Dynamic R-tree (quadratic split) over arbitrary tile rectangles."""

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.max_entries = max_entries
        self.min_entries = max_entries // 2
        self._root = _Node(leaf=True)
        self._domains: Dict[int, MInterval] = {}

    # -- public API -----------------------------------------------------------

    def insert(self, tile_id: int, domain: MInterval) -> None:
        if tile_id in self._domains:
            raise TilingError(f"tile {tile_id} already indexed")
        self._domains[tile_id] = domain
        split = self._insert(self._root, tile_id, domain)
        if split is not None:
            old_root = self._root
            self._root = _Node(leaf=False)
            for node in (old_root, split):
                box = node.mbr()
                assert box is not None
                self._root.children.append(node)
                self._root.boxes.append(box)

    def intersecting(self, region: MInterval) -> List[int]:
        found: List[int] = []
        self._search(self._root, region, found)
        return sorted(found)

    def domain_of(self, tile_id: int) -> MInterval:
        try:
            return self._domains[tile_id]
        except KeyError:
            raise DomainError(f"tile {tile_id} not in index") from None

    def all_ids(self) -> List[int]:
        return sorted(self._domains)

    # -- internals ----------------------------------------------------------------

    def _search(self, node: _Node, region: MInterval, found: List[int]) -> None:
        for position, box in enumerate(node.boxes):
            if not box.intersects(region):
                continue
            if node.leaf:
                found.append(node.tile_ids[position])
            else:
                self._search(node.children[position], region, found)

    def _insert(self, node: _Node, tile_id: int, box: MInterval) -> Optional[_Node]:
        """Insert into subtree; returns a split-off sibling when overflowing."""
        if node.leaf:
            node.boxes.append(box)
            node.tile_ids.append(tile_id)
            if len(node.boxes) > self.max_entries:
                return self._split(node)
            return None
        best = self._choose_child(node, box)
        split = self._insert(node.children[best], tile_id, box)
        refreshed = node.children[best].mbr()
        assert refreshed is not None
        node.boxes[best] = refreshed
        if split is not None:
            split_box = split.mbr()
            assert split_box is not None
            node.children.append(split)
            node.boxes.append(split_box)
            if len(node.children) > self.max_entries:
                return self._split(node)
        return None

    def _choose_child(self, node: _Node, box: MInterval) -> int:
        """Child whose MBR grows least (ties: smaller area)."""
        best_index = 0
        best_growth = None
        best_area = None
        for position, child_box in enumerate(node.boxes):
            area = child_box.cell_count
            grown = child_box.hull(box).cell_count
            growth = grown - area
            if (
                best_growth is None
                or growth < best_growth
                or (growth == best_growth and area < (best_area or 0))
            ):
                best_index = position
                best_growth = growth
                best_area = area
        return best_index

    def _split(self, node: _Node) -> _Node:
        """Quadratic split; *node* keeps one group, the returned node the other."""
        entries = list(range(len(node.boxes)))
        seed_a, seed_b = self._pick_seeds(node.boxes)
        group_a = [seed_a]
        group_b = [seed_b]
        remaining = [i for i in entries if i not in (seed_a, seed_b)]
        while remaining:
            # Force assignment when one group must take everything left.
            if len(group_a) + len(remaining) <= self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) <= self.min_entries:
                group_b.extend(remaining)
                break
            index = remaining.pop(0)
            mbr_a = self._group_mbr(node.boxes, group_a)
            mbr_b = self._group_mbr(node.boxes, group_b)
            grow_a = mbr_a.hull(node.boxes[index]).cell_count - mbr_a.cell_count
            grow_b = mbr_b.hull(node.boxes[index]).cell_count - mbr_b.cell_count
            (group_a if grow_a <= grow_b else group_b).append(index)
        sibling = _Node(leaf=node.leaf)
        keep_boxes = [node.boxes[i] for i in group_a]
        move_boxes = [node.boxes[i] for i in group_b]
        if node.leaf:
            keep_ids = [node.tile_ids[i] for i in group_a]
            move_ids = [node.tile_ids[i] for i in group_b]
            node.boxes, node.tile_ids = keep_boxes, keep_ids
            sibling.boxes, sibling.tile_ids = move_boxes, move_ids
        else:
            keep_children = [node.children[i] for i in group_a]
            move_children = [node.children[i] for i in group_b]
            node.boxes, node.children = keep_boxes, keep_children
            sibling.boxes, sibling.children = move_boxes, move_children
        return sibling

    @staticmethod
    def _pick_seeds(boxes: List[MInterval]) -> Tuple[int, int]:
        """Pair wasting the most area when joined (quadratic seed pick)."""
        worst = (0, 1)
        worst_waste = -1
        for a in range(len(boxes)):
            for b in range(a + 1, len(boxes)):
                waste = (
                    boxes[a].hull(boxes[b]).cell_count
                    - boxes[a].cell_count
                    - boxes[b].cell_count
                )
                if waste > worst_waste:
                    worst_waste = waste
                    worst = (a, b)
        return worst

    @staticmethod
    def _group_mbr(boxes: List[MInterval], group: List[int]) -> MInterval:
        box = boxes[group[0]]
        for index in group[1:]:
            box = box.hull(boxes[index])
        return box


def build_index(
    domain: MInterval,
    tile_domains: List[MInterval],
    tile_shape: Optional[Sequence[int]] = None,
) -> TileIndex:
    """Choose and populate the right index for a tile set.

    A :class:`GridIndex` when *tile_shape* describes a regular grid (fast
    path), otherwise an :class:`RTreeIndex`.
    """
    index: TileIndex
    if tile_shape is not None:
        index = GridIndex(domain, tile_shape)
    else:
        index = RTreeIndex()
    for tile_id, tile_domain in enumerate(tile_domains):
        index.insert(tile_id, tile_domain)
    return index
