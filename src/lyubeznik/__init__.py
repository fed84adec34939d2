"""Exact Lyubeznik tables for cones over nonsingular projective varieties.

The package parses a small expression language for varieties (projective
spaces, Grassmannians, curves, abelian varieties, hypersurfaces, complete
intersections, products, disjoint unions), computes exact de Rham Betti
vectors, and fills in the complete table of Lyubeznik numbers of the
local ring at the vertex of the affine cone.  Independent
exact-sequence bookkeeping recomputes the first row and the last column,
and a count of connected components the corner, so every answer can be
cross-checked.
"""

from .betti import (
    AdmissibilityError,
    BettiVector,
    InternalConsistencyError,
    betti,
    check_lefschetz_admissible,
    euler_char_ci,
)
from .graph import ComponentGraph, GraphError, corner_from_graph
from .oracle import cone_local_derham_dims, gysin_last_column
from .parser import ParseError, parse_variety
from .table import LyubeznikTable, lyubeznik_table
from .variety import (
    Abelian,
    CompleteIntersection,
    Curve,
    DimensionMismatchError,
    DisjointUnion,
    Grassmannian,
    Hypersurface,
    Product,
    ProjSpace,
    SemanticError,
    VarietyExpr,
    dimension,
    render,
)

__version__ = "0.1.0"

__all__ = [
    "Abelian",
    "AdmissibilityError",
    "BettiVector",
    "CompleteIntersection",
    "ComponentGraph",
    "Curve",
    "DimensionMismatchError",
    "DisjointUnion",
    "GraphError",
    "Grassmannian",
    "Hypersurface",
    "InternalConsistencyError",
    "LyubeznikTable",
    "ParseError",
    "Product",
    "ProjSpace",
    "SemanticError",
    "VarietyExpr",
    "betti",
    "check_lefschetz_admissible",
    "cone_local_derham_dims",
    "corner_from_graph",
    "dimension",
    "euler_char_ci",
    "gysin_last_column",
    "lyubeznik_table",
    "parse_variety",
    "render",
]
