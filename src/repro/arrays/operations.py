"""Array operations (Kapitel 2.5.5): trimming, induced ops, condensers
and scaling.

Operations work on :class:`MArray` values — a spatial domain plus the
materialised cells of exactly that region.  The query executor reads the
minimal region from an :class:`~repro.arrays.mdd.MDD` (possibly via HEAVEN's
tape hierarchy) and then evaluates pure functions from this module, so
operation semantics are testable without any storage attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from ..errors import DomainError, QueryError
from .minterval import MInterval, SInterval


@dataclass(frozen=True)
class MArray:
    """A value: cells anchored at an absolute spatial domain."""

    domain: MInterval
    cells: np.ndarray

    def __post_init__(self) -> None:
        if tuple(self.cells.shape) != self.domain.shape:
            raise DomainError(
                f"cells shape {tuple(self.cells.shape)} != domain {self.domain.shape}"
            )

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def scalar(self) -> Union[int, float, bool]:
        """The single cell of a 0-extent array (for condenser results)."""
        if self.cells.size != 1:
            raise QueryError(f"array of {self.cells.size} cells is not a scalar")
        return self.cells.reshape(()).item()


ScalarOrArray = Union[MArray, int, float, bool]


# -- geometric operations ----------------------------------------------------


def trim(value: MArray, region: MInterval) -> MArray:
    """Restrict to *region* (dimensionality preserved)."""
    clipped = value.domain.intersection(region)
    if clipped is None:
        raise DomainError(f"trim region {region} disjoint from {value.domain}")
    return MArray(clipped, value.cells[clipped.to_slices(value.domain)])


def shift(value: MArray, offsets: Sequence[int]) -> MArray:
    """Translate the domain (cells unchanged)."""
    return MArray(value.domain.translate(offsets), value.cells)


# -- induced operations -------------------------------------------------------

_BINARY_OPS: dict = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
    "!=": np.not_equal,
    "and": np.logical_and,
    "or": np.logical_or,
}

_UNARY_OPS: dict = {
    "-": np.negative,
    "not": np.logical_not,
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
}


def induced_binary(op: str, left: ScalarOrArray, right: ScalarOrArray) -> ScalarOrArray:
    """Cell-wise binary operation; scalars broadcast against arrays.

    Two arrays must share the same domain (RasDaMan's induction rule).
    """
    fn = _BINARY_OPS.get(op)
    if fn is None:
        raise QueryError(f"unknown binary operation {op!r}")
    if isinstance(left, MArray) and isinstance(right, MArray):
        if left.domain != right.domain:
            raise DomainError(
                f"induced {op}: domains differ ({left.domain} vs {right.domain})"
            )
        return MArray(left.domain, fn(left.cells, right.cells))
    if isinstance(left, MArray):
        return MArray(left.domain, fn(left.cells, right))
    if isinstance(right, MArray):
        return MArray(right.domain, fn(left, right.cells))
    return fn(left, right).item() if hasattr(fn(left, right), "item") else fn(left, right)


def induced_unary(op: str, value: ScalarOrArray) -> ScalarOrArray:
    """Cell-wise unary operation."""
    fn = _UNARY_OPS.get(op)
    if fn is None:
        raise QueryError(f"unknown unary operation {op!r}")
    if isinstance(value, MArray):
        return MArray(value.domain, fn(value.cells))
    result = fn(value)
    return result.item() if hasattr(result, "item") else result


def cast(value: ScalarOrArray, dtype: str) -> ScalarOrArray:
    """Cell-type cast (RasQL's ``(double) a`` style)."""
    np_dtype = np.dtype(
        {"double": "float64", "float": "float32", "long": "int32", "short": "int16",
         "char": "uint8", "octet": "int8", "bool": "bool", "ulong": "uint32",
         "ushort": "uint16"}.get(dtype, dtype)
    )
    if isinstance(value, MArray):
        return MArray(value.domain, value.cells.astype(np_dtype))
    return np_dtype.type(value).item()


# -- condensers ------------------------------------------------------------------

_CONDENSERS: dict = {
    "add_cells": np.sum,
    "avg_cells": np.mean,
    "max_cells": np.max,
    "min_cells": np.min,
    "count_cells": None,  # special: counts true cells of a boolean array
    "some_cells": np.any,
    "all_cells": np.all,
    "var_cells": np.var,
    "stddev_cells": np.std,
}


def condense(name: str, value: MArray) -> Union[int, float, bool]:
    """Reduce an array to one scalar (RasQL condenser functions)."""
    if name not in _CONDENSERS:
        raise QueryError(f"unknown condenser {name!r}")
    if name == "count_cells":
        if value.cells.dtype != np.bool_:
            raise QueryError("count_cells requires a boolean array")
        return int(np.count_nonzero(value.cells))
    result = _CONDENSERS[name](value.cells)
    return result.item()


def condenser_names() -> List[str]:
    return sorted(_CONDENSERS)


# -- scaling ---------------------------------------------------------------------


def scale_down(value: MArray, factors: Sequence[int]) -> MArray:
    """Integer-factor downsampling by block averaging (image pyramids).

    The result domain starts at the scaled origin; trailing cells that do
    not fill a complete block are dropped (standard pyramid behaviour).
    """
    if len(factors) != value.dimension:
        raise DomainError("one scale factor per dimension required")
    if any(f < 1 for f in factors):
        raise DomainError(f"scale factors must be >= 1: {factors}")
    new_axes = []
    slices = []
    for axis, factor in zip(value.domain.axes, factors):
        blocks = axis.extent // factor
        if blocks < 1:
            raise DomainError(
                f"axis {axis} too small for scale factor {factor}"
            )
        new_axes.append(SInterval(axis.lo // factor, axis.lo // factor + blocks - 1))
        slices.append(slice(0, blocks * factor))
    trimmed = value.cells[tuple(slices)]
    work = trimmed.astype(np.float64)
    for dim, factor in enumerate(factors):
        if factor == 1:
            continue
        shape = list(work.shape)
        shape[dim] = shape[dim] // factor
        shape.insert(dim + 1, factor)
        work = work.reshape(shape).mean(axis=dim + 1)
    return MArray(MInterval(new_axes), work.astype(value.cells.dtype))

