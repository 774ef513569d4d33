"""Evaluator of the RasQL subset.

The executor keeps MDD references *lazy* while trims and sections accumulate,
and only materialises cells when an operation truly needs them.  That is the
hook HEAVEN plugs into twice:

* reads of a lazy reference go through a *materialize* hook, so HEAVEN
  stages only the tiles intersecting the final region — through cache and
  tape when the object is archived — in one scheduled pass;
* condensers over a lazy reference are first offered to a *condenser hook*
  so HEAVEN's precomputed-results catalog can answer them without touching
  tape at all (Kapitel 3.8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ...errors import DomainError, QueryError
from ..mdd import MDD, Collection
from ..minterval import MInterval, SInterval
from ..operations import (
    MArray,
    cast,
    condense,
    condenser_names,
    induced_binary,
    induced_unary,
    scale_down,
    shift,
)
from .ast import (
    BinaryOp,
    CreateCollection,
    DeleteFrom,
    DropCollection,
    FieldAccess,
    FuncCall,
    Node,
    NumberLit,
    Query,
    Statement,
    StringLit,
    Subset,
    UnaryOp,
    Var,
)
from .parser import parse

#: Axis spec of a lazy reference: kept interval or sectioned point.
AxisSpec = Union[SInterval, int]

_CAST_NAMES = {
    "double", "float", "long", "ulong", "short", "ushort", "char", "octet", "bool",
}
_UNARY_FUNCS = {"abs", "sqrt", "exp", "log", "sin", "cos"}


class MDDRef:
    """Lazy view of an MDD: accumulated trims/sections, no cells yet."""

    def __init__(self, mdd: MDD, specs: Optional[List[AxisSpec]] = None) -> None:
        self.mdd = mdd
        self.specs: List[AxisSpec] = (
            specs if specs is not None else list(mdd.domain.axes)
        )
        if len(self.specs) != mdd.domain.dimension:
            raise DomainError("spec list must cover every original dimension")

    # -- geometry -------------------------------------------------------------

    def visible_axes(self) -> List[int]:
        """Original axis positions still visible (not sectioned away)."""
        return [i for i, s in enumerate(self.specs) if isinstance(s, SInterval)]

    def visible_domain(self) -> MInterval:
        axes = [s for s in self.specs if isinstance(s, SInterval)]
        if not axes:
            # Fully sectioned: a single cell; expose a 1-point pseudo axis.
            return MInterval.of((0, 0))
        return MInterval(axes)

    def full_region(self) -> MInterval:
        """Region in the original dimensionality (sections as 1-point axes)."""
        return MInterval(
            s if isinstance(s, SInterval) else SInterval(s, s) for s in self.specs
        )

    @property
    def dimension(self) -> int:
        return len(self.visible_axes())

    # -- refinement ----------------------------------------------------------------

    def subset(self, dim_specs: Sequence[Tuple[Optional[int], Optional[int], bool]]) -> "MDDRef":
        """Apply ``[...]`` specs (already evaluated to ints) to visible axes."""
        visible = self.visible_axes()
        if len(dim_specs) != len(visible):
            raise QueryError(
                f"subset lists {len(dim_specs)} dimensions, reference has "
                f"{len(visible)}"
            )
        new_specs = list(self.specs)
        for (lo, hi, is_section), axis_index in zip(dim_specs, visible):
            current = self.specs[axis_index]
            assert isinstance(current, SInterval)
            actual_lo = current.lo if lo is None else lo
            actual_hi = current.hi if hi is None else hi
            if not (
                current.contains(actual_lo) and current.contains(actual_hi)
            ):
                raise DomainError(
                    f"subset [{actual_lo}:{actual_hi}] outside axis {current} "
                    f"of object {self.mdd.name!r}"
                )
            if is_section:
                new_specs[axis_index] = actual_lo
            else:
                new_specs[axis_index] = SInterval(actual_lo, actual_hi)
        return MDDRef(self.mdd, new_specs)

    # -- materialisation ---------------------------------------------------------------

    def materialize(self) -> MArray:
        """Read the cells of the accumulated region and squeeze sections."""
        region = self.full_region()
        cells = self.mdd.read(region)
        sectioned = tuple(
            i for i, s in enumerate(self.specs) if not isinstance(s, SInterval)
        )
        if sectioned:
            cells = np.squeeze(cells, axis=sectioned)
        domain = self.visible_domain()
        if cells.ndim == 0:
            cells = cells.reshape((1,))
        return MArray(domain, cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MDDRef({self.mdd.name!r}, [{self.full_region()}])"


Value = Union[MArray, MDDRef, MInterval, int, float, bool, str]

#: Hook signature: (condenser name, lazy reference) -> scalar or None.
CondenserHook = Callable[[str, MDDRef], Optional[Union[int, float, bool]]]

#: Extension function: (executor, raw args already evaluated) -> value.
ExtensionFunc = Callable[["QueryExecutor", List[Value]], Value]


@dataclass
class MutationHooks:
    """Callbacks the executor uses for DDL/DML statements.

    HEAVEN binds these to its hierarchy-aware operations (a delete must
    release cache entries and tape segments, not just catalog rows).
    """

    create_collection: Callable[[str], object]
    drop_collection: Callable[[str], None]
    delete_object: Callable[[str, str], None]


@dataclass
class QueryResult:
    """One item of a query result set."""

    value: Union[MArray, int, float, bool, str, MInterval]
    bindings: Dict[str, str] = field(default_factory=dict)

    def scalar(self) -> Union[int, float, bool]:
        if isinstance(self.value, MArray):
            return self.value.scalar()
        if isinstance(self.value, (int, float, bool)):
            return self.value
        raise QueryError(f"result {type(self.value).__name__} is not scalar")


class QueryExecutor:
    """Evaluates parsed queries against a set of named collections."""

    def __init__(
        self,
        collections: Callable[[str], Collection],
        condenser_hook: Optional[CondenserHook] = None,
        scale_hook: Optional[Callable[["MDDRef", List[int]], Optional[MArray]]] = None,
        materialize: Callable[[MDDRef], MArray] = MDDRef.materialize,
        mutations: Optional[MutationHooks] = None,
        tracer=None,
    ) -> None:
        from ...obs.trace import null_tracer

        self._collections = collections
        self.condenser_hook = condenser_hook
        self.scale_hook = scale_hook
        self.materialize = materialize
        self.mutations = mutations
        #: span tracer; HEAVEN swaps in its own so query spans parent the
        #: staging spans opened further down the hierarchy
        self.tracer = tracer if tracer is not None else null_tracer
        #: lifetime statement counters (observability metrics)
        self.queries_run = 0
        self.statements_run = 0
        self._extensions: Dict[str, ExtensionFunc] = {}
        self._condensers = set(condenser_names())

    def register_extension(self, name: str, fn: ExtensionFunc) -> None:
        """Add a query-language extension function (HEAVEN adds ``frame``)."""
        lowered = name.lower()
        if lowered in self._extensions:
            raise QueryError(f"extension {name!r} already registered")
        self._extensions[lowered] = fn

    # -- entry points -------------------------------------------------------

    def execute(self, text: str) -> List[QueryResult]:
        """Parse and run a statement.

        SELECT returns one result per qualifying tuple; DDL/DML statements
        return a single result describing what happened.
        """
        statement = parse(text)
        if isinstance(statement, Query):
            self.queries_run += 1
            with self.tracer.span("query", text=text):
                return self.run(statement)
        self.statements_run += 1
        with self.tracer.span("query.statement", text=text):
            return self.run_statement(statement)

    def run_statement(self, statement: Statement) -> List[QueryResult]:
        """Execute a non-SELECT statement through the mutation hooks."""
        if self.mutations is None:
            raise QueryError(
                "this executor is read-only; no mutation hooks installed"
            )
        if isinstance(statement, CreateCollection):
            self.mutations.create_collection(statement.name)
            return [QueryResult(value=f"created collection {statement.name}")]
        if isinstance(statement, DropCollection):
            self.mutations.drop_collection(statement.name)
            return [QueryResult(value=f"dropped collection {statement.name}")]
        if isinstance(statement, DeleteFrom):
            collection = self._collections(statement.collection)
            victims: List[str] = []
            env: Dict[str, MDDRef] = {}
            for mdd in collection.objects():
                if statement.where is not None:
                    env[statement.alias] = MDDRef(mdd)
                    keep = self._to_bool(self.evaluate(statement.where, env))
                    env.pop(statement.alias, None)
                    if not keep:
                        continue
                victims.append(mdd.name)
            for name in victims:
                self.mutations.delete_object(statement.collection, name)
            return [
                QueryResult(
                    value=f"deleted {len(victims)} object(s)",
                    bindings={name: name for name in victims},
                )
            ]
        raise QueryError(f"unsupported statement {type(statement).__name__}")

    def run(self, query: Query) -> List[QueryResult]:
        iterators: List[Tuple[str, List[MDD]]] = []
        for item in query.from_items:
            collection = self._collections(item.collection)
            iterators.append((item.alias, collection.objects()))
        results: List[QueryResult] = []
        self._cross_product(query, iterators, 0, {}, results)
        return results

    def _cross_product(
        self,
        query: Query,
        iterators: List[Tuple[str, List[MDD]]],
        depth: int,
        env: Dict[str, MDDRef],
        results: List[QueryResult],
    ) -> None:
        if depth == len(iterators):
            if query.where is not None:
                keep = self._to_bool(self.evaluate(query.where, env))
                if not keep:
                    return
            value = self._dense(self.evaluate(query.select, env))
            results.append(
                QueryResult(
                    value=value,
                    bindings={alias: ref.mdd.name for alias, ref in env.items()},
                )
            )
            return
        alias, objects = iterators[depth]
        for mdd in objects:
            env[alias] = MDDRef(mdd)
            self._cross_product(query, iterators, depth + 1, env, results)
        env.pop(alias, None)

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, node: Node, env: Dict[str, MDDRef]) -> Value:
        if isinstance(node, NumberLit):
            return node.value
        if isinstance(node, StringLit):
            return node.value
        if isinstance(node, Var):
            if node.name not in env:
                raise QueryError(f"unknown variable {node.name!r}")
            return env[node.name]
        if isinstance(node, Subset):
            return self._eval_subset(node, env)
        if isinstance(node, BinaryOp):
            left = self._dense(self.evaluate(node.left, env))
            right = self._dense(self.evaluate(node.right, env))
            return induced_binary(node.op, left, right)
        if isinstance(node, UnaryOp):
            return induced_unary(node.op, self._dense(self.evaluate(node.operand, env)))
        if isinstance(node, FieldAccess):
            return self._eval_field(node, env)
        if isinstance(node, FuncCall):
            return self._eval_func(node, env)
        raise QueryError(f"cannot evaluate node {type(node).__name__}")

    def _eval_subset(self, node: Subset, env: Dict[str, MDDRef]) -> Value:
        operand = self.evaluate(node.operand, env)
        specs: List[Tuple[Optional[int], Optional[int], bool]] = []
        for spec in node.specs:
            lo = self._to_int(self.evaluate(spec.lo, env)) if spec.lo is not None else None
            hi = self._to_int(self.evaluate(spec.hi, env)) if spec.hi is not None else None
            specs.append((lo, hi, spec.is_section))
        if isinstance(operand, MDDRef):
            return operand.subset(specs)
        if isinstance(operand, MArray):
            return self._subset_marray(operand, specs)
        raise QueryError("subscript applied to a non-array value")

    @staticmethod
    def _subset_marray(
        value: MArray, specs: List[Tuple[Optional[int], Optional[int], bool]]
    ) -> MArray:
        if len(specs) != value.dimension:
            raise QueryError(
                f"subset lists {len(specs)} dimensions, array has {value.dimension}"
            )
        slices: List[Any] = []
        axes: List[SInterval] = []
        for (lo, hi, is_section), axis in zip(specs, value.domain.axes):
            actual_lo = axis.lo if lo is None else lo
            actual_hi = axis.hi if hi is None else hi
            if not (axis.contains(actual_lo) and axis.contains(actual_hi)):
                raise DomainError(f"subset [{actual_lo}:{actual_hi}] outside {axis}")
            if is_section:
                slices.append(actual_lo - axis.lo)
            else:
                slices.append(slice(actual_lo - axis.lo, actual_hi - axis.lo + 1))
                axes.append(SInterval(actual_lo, actual_hi))
        cells = value.cells[tuple(slices)]
        if not axes:
            axes = [SInterval(0, 0)]
            cells = cells.reshape((1,))
        return MArray(MInterval(axes), cells)

    def _eval_field(self, node: FieldAccess, env: Dict[str, MDDRef]) -> Value:
        operand = self._dense(self.evaluate(node.operand, env))
        if not isinstance(operand, MArray):
            raise QueryError("field access on a non-array value")
        if operand.cells.dtype.fields is None or node.field not in operand.cells.dtype.fields:
            raise QueryError(f"cell type has no field {node.field!r}")
        return MArray(operand.domain, operand.cells[node.field])

    def _eval_func(self, node: FuncCall, env: Dict[str, MDDRef]) -> Value:
        name = node.name
        if name in self._extensions:
            args = [self.evaluate(a, env) for a in node.args]
            return self._extensions[name](self, args)
        if name in self._condensers:
            if len(node.args) != 1:
                raise QueryError(f"{name}() takes exactly one argument")
            operand = self.evaluate(node.args[0], env)
            if isinstance(operand, MDDRef) and self.condenser_hook is not None:
                answer = self.condenser_hook(name, operand)
                if answer is not None:
                    return answer
            return condense(name, self._require_array(self._dense(operand), name))
        if name == "sdom":
            operand = self.evaluate(node.args[0], env)
            if isinstance(operand, MDDRef):
                return operand.visible_domain()
            if isinstance(operand, MArray):
                return operand.domain
            raise QueryError("sdom() needs an array argument")
        if name == "name":
            operand = self.evaluate(node.args[0], env)
            if isinstance(operand, MDDRef):
                return operand.mdd.name
            raise QueryError("name() needs an object reference")
        if name == "oid":
            operand = self.evaluate(node.args[0], env)
            if isinstance(operand, MDDRef) and operand.mdd.oid is not None:
                return operand.mdd.oid
            raise QueryError("oid() needs a persisted object reference")
        if name == "scale":
            if len(node.args) < 2:
                raise QueryError("scale(array, f1, f2, ...) needs factors")
            operand = self.evaluate(node.args[0], env)
            factors = [self._to_int(self.evaluate(a, env)) for a in node.args[1:]]
            if isinstance(operand, MDDRef) and self.scale_hook is not None:
                answer = self.scale_hook(operand, factors)
                if answer is not None:
                    return answer
            array = self._require_array(self._dense(operand), "scale")
            return scale_down(array, factors)
        if name == "shift":
            array = self._require_array(
                self._dense(self.evaluate(node.args[0], env)), "shift"
            )
            offsets = [self._to_int(self.evaluate(a, env)) for a in node.args[1:]]
            return shift(array, offsets)
        if name == "overlay":
            if len(node.args) != 2:
                raise QueryError("overlay(top, bottom) takes two arguments")
            top = self._require_array(
                self._dense(self.evaluate(node.args[0], env)), "overlay"
            )
            bottom = self._require_array(
                self._dense(self.evaluate(node.args[1], env)), "overlay"
            )
            if top.domain != bottom.domain:
                raise QueryError("overlay: operand domains differ")
            cells = np.where(top.cells != 0, top.cells, bottom.cells)
            return MArray(top.domain, cells)
        if name in _UNARY_FUNCS:
            return induced_unary(name, self._dense(self.evaluate(node.args[0], env)))
        if name in _CAST_NAMES:
            return cast(self._dense(self.evaluate(node.args[0], env)), name)
        raise QueryError(f"unknown function {name!r}")

    # -- coercion helpers -----------------------------------------------------------

    def _dense(self, value: Value) -> Union[MArray, int, float, bool, str]:
        """Materialise lazy references; leave everything else alone."""
        if isinstance(value, MDDRef):
            return self.materialize(value)
        return value  # type: ignore[return-value]

    @staticmethod
    def _require_array(value: Value, context: str) -> MArray:
        if not isinstance(value, MArray):
            raise QueryError(f"{context}: expected an array, got {type(value).__name__}")
        return value

    @staticmethod
    def _to_int(value: Value) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise QueryError(f"expected an integer bound, got {value!r}")
        if isinstance(value, float):
            if not value.is_integer():
                raise QueryError(f"bound {value} is not an integer")
            return int(value)
        return value

    def _to_bool(self, value: Value) -> bool:
        value = self._dense(value)
        if isinstance(value, MArray):
            raise QueryError("WHERE condition must be scalar; use a condenser")
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        raise QueryError(f"WHERE condition is {type(value).__name__}, not boolean")
