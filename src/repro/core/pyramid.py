"""Materialised scaling pyramids (Kapitel 3.8's second family of
precomputed operation results).

Interactive visualisation asks for the same expensive operation over and
over: ``scale(object, f)`` at a handful of zoom factors.  HEAVEN
materialises those levels **at archive time**, while the object's tiles are
still on secondary storage, and keeps the (small) levels disk-resident.  A
later ``scale()`` call over an archived object is then answered from the
matching pyramid level without touching tape.

A level at factor ``f`` of a ``d``-dimensional object holds ``1/f**d`` of
the cells, so a full 2/4/8 pyramid of a 2-D mosaic costs under 10 % extra
space — the classic trade the paper advocates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..arrays.mdd import MDD
from ..arrays.minterval import MInterval, SInterval
from ..arrays.operations import MArray, scale_down, trim
from ..arrays.query.executor import MDDRef
from ..errors import HeavenError


@dataclass
class PyramidLevel:
    """One materialised zoom level of an object."""

    factor: int
    #: scaled cells over the whole object, anchored at the scaled origin
    cells: np.ndarray
    domain: MInterval

    @property
    def size_bytes(self) -> int:
        return int(self.cells.nbytes)


@dataclass
class PyramidStats:
    """How often pyramid levels answered ``scale()`` calls."""

    lookups: int = 0
    answered: int = 0
    declined: int = 0


class PyramidCatalog:
    """Per-object materialised scale levels plus the lookup logic."""

    def __init__(self) -> None:
        self._levels: Dict[str, Dict[int, PyramidLevel]] = {}
        self.stats = PyramidStats()

    # -- construction --------------------------------------------------------

    def build(self, mdd: MDD, factors: Sequence[int]) -> List[PyramidLevel]:
        """Materialise the given isotropic zoom *factors* for *mdd*.

        Call while the object is still disk-resident (at archive time);
        each level is the block average of the previous one, so the whole
        pyramid costs one full read of the base object.
        """
        if mdd.cell_type.dtype.fields is not None:
            raise HeavenError("pyramids need scalar cell types")
        factors = sorted(set(int(f) for f in factors))
        if any(f < 2 for f in factors):
            raise HeavenError(f"zoom factors must be >= 2: {factors}")
        base = MArray(mdd.domain, mdd.read(mdd.domain))
        levels: Dict[int, PyramidLevel] = {}
        for factor in factors:
            scaled = scale_down(base, [factor] * mdd.dimension)
            levels[factor] = PyramidLevel(
                factor=factor, cells=scaled.cells, domain=scaled.domain
            )
        self._levels[mdd.name] = levels
        return [levels[f] for f in factors]

    def drop_object(self, object_name: str) -> None:
        self._levels.pop(object_name, None)

    def has_object(self, object_name: str) -> bool:
        return object_name in self._levels

    def total_bytes(self, object_name: str) -> int:
        return sum(
            level.size_bytes for level in self._levels.get(object_name, {}).values()
        )

    # -- answering -------------------------------------------------------------

    def try_answer(
        self, ref: MDDRef, factors: Sequence[int]
    ) -> Optional[MArray]:
        """Answer ``scale(ref, *factors)`` from a level, or None to decline.

        Requires an isotropic factor with a materialised level, a reference
        without sections, and a region aligned to the factor grid (the
        common pan-and-zoom case); everything else falls back to reading
        and scaling the base object.
        """
        self.stats.lookups += 1
        levels = self._levels.get(ref.mdd.name)
        factors = [int(f) for f in factors]
        isotropic = len(set(factors)) == 1 and len(factors) == ref.mdd.dimension
        if levels is None or not isotropic or factors[0] not in levels:
            self.stats.declined += 1
            return None
        if len(ref.visible_axes()) != ref.mdd.dimension:
            self.stats.declined += 1
            return None  # sectioned reference: dimensionality differs
        factor = factors[0]
        region = ref.full_region()
        if not all(
            axis.lo % factor == 0 and (axis.hi + 1) % factor == 0
            for axis in region.axes
        ):
            self.stats.declined += 1
            return None
        level = levels[factor]
        scaled_region = MInterval(
            SInterval(axis.lo // factor, (axis.hi + 1) // factor - 1)
            for axis in region.axes
        )
        if not level.domain.contains(scaled_region):
            self.stats.declined += 1
            return None
        answer = trim(MArray(level.domain, level.cells), scaled_region)
        self.stats.answered += 1
        return MArray(answer.domain, answer.cells.copy())
