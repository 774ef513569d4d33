"""Multidimensional array DBMS substrate (the RasDaMan role).

Logical model (domains, cell types, MDD objects), physical model (tiling,
tile indexes, BLOB persistence via the base DBMS) and a RasQL query subset.
"""

from .celltype import (
    BOOL,
    CHAR,
    DOUBLE,
    FLOAT,
    LONG,
    OCTET,
    RGB,
    SHORT,
    ULONG,
    USHORT,
    CellType,
    known_types,
    lookup,
    register,
    struct_type,
)
from .cellsource import (
    CellSource,
    ConstantSource,
    FunctionSource,
    HashedNoiseSource,
    QuantizedSource,
    ZeroSource,
)
from .index import GridIndex
from .mdd import MDD, Collection, TileResolver
from .minterval import MInterval, SInterval
from .operations import (
    MArray,
    cast,
    condense,
    condenser_names,
    induced_binary,
    induced_unary,
    scale_down,
    shift,
    trim,
)
from .query import MDDRef, QueryExecutor, QueryResult, parse, parse_expression
from .storage import ArrayStorage
from .tile import Tile
from .tiling import RegularTiling

__all__ = [
    "ArrayStorage",
    "BOOL",
    "CHAR",
    "CellSource",
    "CellType",
    "Collection",
    "ConstantSource",
    "DOUBLE",
    "FLOAT",
    "FunctionSource",
    "GridIndex",
    "HashedNoiseSource",
    "LONG",
    "MArray",
    "MDD",
    "MDDRef",
    "MInterval",
    "OCTET",
    "QuantizedSource",
    "QueryExecutor",
    "QueryResult",
    "RGB",
    "RegularTiling",
    "SHORT",
    "SInterval",
    "Tile",
    "TileResolver",
    "ULONG",
    "USHORT",
    "ZeroSource",
    "cast",
    "condense",
    "condenser_names",
    "induced_binary",
    "induced_unary",
    "known_types",
    "lookup",
    "parse",
    "parse_expression",
    "register",
    "scale_down",
    "shift",
    "struct_type",
    "trim",
]
