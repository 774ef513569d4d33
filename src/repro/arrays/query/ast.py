"""AST node definitions for the RasQL subset."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union


class Node:
    """Base class of all AST nodes."""


@dataclass(frozen=True)
class NumberLit(Node):
    value: Union[int, float]


@dataclass(frozen=True)
class StringLit(Node):
    value: str


@dataclass(frozen=True)
class Var(Node):
    """Reference to a FROM-clause alias (an MDD iterator variable)."""

    name: str


@dataclass(frozen=True)
class BinaryOp(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class UnaryOp(Node):
    op: str
    operand: Node


@dataclass(frozen=True)
class FieldAccess(Node):
    """Struct-field selection, e.g. ``img.r``."""

    operand: Node
    field: str


@dataclass(frozen=True)
class DimSpec(Node):
    """One dimension inside ``[...]``.

    ``lo``/``hi`` are expressions or None for an open bound (``*``).
    ``is_section`` marks a single-point spec (``a[5, ...]``), which reduces
    dimensionality.
    """

    lo: Optional[Node]
    hi: Optional[Node]
    is_section: bool


@dataclass(frozen=True)
class Subset(Node):
    """Trimming/section application: ``operand[specs]``."""

    operand: Node
    specs: Tuple[DimSpec, ...]


@dataclass(frozen=True)
class FuncCall(Node):
    name: str
    args: Tuple[Node, ...]


@dataclass(frozen=True)
class FromItem(Node):
    collection: str
    alias: str


@dataclass(frozen=True)
class Query(Node):
    """A full SELECT query."""

    select: Node
    from_items: Tuple[FromItem, ...]
    where: Optional[Node]


@dataclass(frozen=True)
class CreateCollection(Node):
    """``create collection <name>``."""

    name: str


@dataclass(frozen=True)
class DropCollection(Node):
    """``drop collection <name>``."""

    name: str


@dataclass(frozen=True)
class DeleteFrom(Node):
    """``delete from <collection> [as alias] [where cond]``."""

    collection: str
    alias: str
    where: Optional[Node]


#: Every parseable top-level statement.
Statement = Union[Query, CreateCollection, DropCollection, DeleteFrom]
