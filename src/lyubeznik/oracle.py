"""Routes to the first row, the last column and the corner of the table.

``cone_local_derham_dims`` recomputes dim H^j at the cone vertex for
j = 0..r by pure dimension bookkeeping.  Degree 0 vanishes; degree 1
comes from the sequence 0 -> k -> H^0(V) -> H^1_vertex -> 0, which
relates the vertex to the global functions; every later degree sits in
a short exact sequence 0 -> H^{j-3}(V) -> H^{j-1}(V) -> H^j_vertex -> 0
whose only geometric input is that cup product with the hyperplane class
is injective below the middle degree.  So each dimension is that of the
target minus that of the source: the differences the table writes for
its first row, restated in code of their own.

``gysin_last_column`` reads the upper half of the Betti vector, which the
table never reads.  Above the middle degree cup product with the
hyperplane class is onto, so the Gysin sequence of the punctured cone U
breaks into 0 -> H^m(U) -> H^{m-1}(V) -> H^{m+1}(V) -> 0 for m >= r + 2.

``component_count`` reads no Betti vector at all: it counts the connected
components of V on the expression tree, whose number is the corner
lambda_{d,d} (Zhang 2007).  The table code is never consulted; agreement
of every route with the printed table is the package's central
self-check.
"""

from math import prod
from operator import sub

from .betti import AdmissibilityError, BettiVector
from .variety import VarietyExpr, fold


def cone_local_derham_dims(b: BettiVector) -> tuple:
    """Local de Rham cohomology dimensions (dim H^0, ..., dim H^r) at the
    cone vertex; the degree-0 entry is always 0.

    >>> cone_local_derham_dims(BettiVector(2, (1, 2, 2, 2, 1)))
    (0, 0, 2)
    >>> cone_local_derham_dims(BettiVector(2, (1, 0, 1, 0, 1)))
    (0, 0, 0)
    """
    r, beta = b.dim, b.betti
    if r < 1:
        raise ValueError("need a variety of dimension r >= 1")
    # Degree j = 1..r is the cokernel of source -> H^{j-1}(V), where the
    # source is k for j = 1, zero for j = 2 (negative-degree cohomology)
    # and H^{j-3}(V) from j = 3 on.
    sources = (1, 0) + beta[:max(r - 2, 0)]
    # A display allocates the tuple once, at its size; tuple(map(...))
    # would grow it in steps, which fragments the heap and raises peak RSS.
    dims = (0, *map(sub, beta[:r], sources))
    if min(dims) < 0:
        j = next(j for j, dim in enumerate(dims) if dim < 0)
        raise AdmissibilityError(
            f"exact sequence in degree {j} forces the negative dimension {dims[j]}; "
            f"a required rank exceeds its target")
    return dims


def gysin_last_column(b: BettiVector) -> tuple:
    """The last column lambda_{1,d}, ..., lambda_{d,d}, d = r + 1: zero,
    then dim H^{p+r}(U) = beta_{p+r-1} - beta_{p+r+1} for p = 2..d, so the
    corner is beta_{2r}.

    >>> gysin_last_column(BettiVector(2, (1, 2, 2, 2, 1)))
    (0, 2, 1)
    """
    r, beta = b.dim, b.betti
    # beta_{m+1} is zero past the top degree 2r, hence the padding.
    return (0, *map(sub, beta[r + 1:], beta[r + 3:] + (0, 0)))


def component_count(expr: VarietyExpr) -> int:
    """The number of connected components of V: one per atom, multiplied
    across a product and added across a disjoint union.

    >>> from lyubeznik.variety import Curve, DisjointUnion, Product
    >>> component_count(Product(DisjointUnion(Curve(1), Curve(2)), Curve(0)))
    2
    """
    return fold(expr, lambda atom: 1, prod, sum)
