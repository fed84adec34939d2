"""Exact Lyubeznik tables for cones over nonsingular projective varieties.

The package parses a small expression language for varieties (projective
spaces, Grassmannians, curves, abelian varieties, hypersurfaces, complete
intersections, products, disjoint unions), computes exact de Rham Betti
vectors, and fills in the complete table of Lyubeznik numbers of the
local ring at the vertex of the affine cone.  An independent
exact-sequence bookkeeping routine recomputes the first row so every
answer can be cross-checked.
"""

from .betti import (
    AdmissibilityError,
    AdmissibilityReport,
    BettiVector,
    InternalConsistencyError,
    betti,
    betti_abelian,
    betti_complete_intersection,
    betti_curve,
    betti_grassmannian,
    betti_projective_space,
    check_lefschetz_admissible,
    disjoint_union_betti,
    euler_char_ci,
    kunneth,
)
from .graph import (
    ComponentGraph,
    GammaGraph,
    GraphError,
    count_components,
    gamma_graph,
)
from .oracle import ConeLocalDims, cone_local_derham_dims
from .parser import ParseError, parse_variety
from .table import LyubeznikTable, corner_from_graph, lyubeznik_table
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
    "AdmissibilityReport",
    "BettiVector",
    "CompleteIntersection",
    "ComponentGraph",
    "ConeLocalDims",
    "Curve",
    "DimensionMismatchError",
    "DisjointUnion",
    "GammaGraph",
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
    "betti_abelian",
    "betti_complete_intersection",
    "betti_curve",
    "betti_grassmannian",
    "betti_projective_space",
    "check_lefschetz_admissible",
    "cone_local_derham_dims",
    "corner_from_graph",
    "count_components",
    "dimension",
    "disjoint_union_betti",
    "euler_char_ci",
    "gamma_graph",
    "kunneth",
    "lyubeznik_table",
    "parse_variety",
    "render",
]
