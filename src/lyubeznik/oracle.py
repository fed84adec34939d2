"""Exact-sequence cross-check for the first row of the table.

``cone_local_derham_dims`` recomputes dim H^j at the cone vertex for
j = 0..r by pure dimension bookkeeping.  Degree 0 vanishes; degree 1
comes from the sequence 0 -> k -> H^0(V) -> H^1_vertex -> 0, which
relates the vertex to the global functions; every later degree sits in
a short exact sequence 0 -> H^{j-3}(V) -> H^{j-1}(V) -> H^j_vertex -> 0
whose only geometric input is that cup product with the hyperplane class
is injective below the middle degree.  So each H^j_vertex is the
cokernel of an injective map, and its dimension is the dimension of the
target minus that of the source: the alternating-sum rule for a short
exact sequence.  The table code and its closed-form first-row formulas
are never consulted; agreement of the two routes is the package's
central self-check.
"""

from operator import sub

from .betti import AdmissibilityError, BettiVector


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
