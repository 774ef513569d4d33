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
from .index import GridIndex, RTreeIndex, TileIndex, build_index
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
from .tiling import (
    AlignedTiling,
    DirectionalTiling,
    RegularTiling,
    SizeBoundedTiling,
    TilingScheme,
    validate_tiling,
)

__all__ = [
    "AlignedTiling",
    "ArrayStorage",
    "BOOL",
    "CHAR",
    "CellSource",
    "CellType",
    "Collection",
    "ConstantSource",
    "DOUBLE",
    "DirectionalTiling",
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
    "RTreeIndex",
    "RegularTiling",
    "SHORT",
    "SInterval",
    "SizeBoundedTiling",
    "Tile",
    "TileIndex",
    "TileResolver",
    "TilingScheme",
    "ULONG",
    "USHORT",
    "ZeroSource",
    "build_index",
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
    "validate_tiling",
]
