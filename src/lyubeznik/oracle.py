"""Exact-sequence cross-check for the first row of the table.

``cone_local_derham_dims`` recomputes dim H^j at the cone vertex for
j = 0..r by pure dimension bookkeeping.  Degree 0 vanishes; degree 1
comes from the three-term sequence relating the vertex to the global
functions; every later degree sits in a short exact sequence whose only
geometric input is that cup product with the hyperplane class is
injective below the middle degree, so the incoming map has full rank.
Each unknown is solved by the alternating-sum rule for exact sequences.
The closed-form first-row formulas are never consulted; agreement of the
two routes is the package's central self-check.
"""

from .betti import AdmissibilityError, BettiVector


def _solve_exact(dims: list, context: str) -> int:
    """Solve an exact sequence 0 -> V_1 -> ... -> V_k -> 0 for its single
    unknown entry (marked None): the alternating sum of the dimensions of
    an exact sequence of finite-dimensional spaces vanishes."""
    unknown = dims.index(None)
    acc = 0
    for pos, value in enumerate(dims):
        if value is not None:
            acc += value if pos % 2 == 0 else -value
    solved = -acc if unknown % 2 == 0 else acc
    if solved < 0:
        raise AdmissibilityError(
            f"exact sequence in {context} forces the negative dimension {solved}; "
            f"a required rank exceeds its target")
    return solved


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
    dims = [0]  # the vertex cohomology vanishes in degree 0
    # 0 -> k -> H^0(V) -> H^1_vertex -> 0
    dims.append(_solve_exact([1, beta[0], None], "degree 1"))
    for j in range(2, r + 1):
        # Cup with the hyperplane class is injective below the middle, so
        # the long sequence splits into
        # 0 -> H^{j-3}(V) -> H^{j-1}(V) -> H^j_vertex -> 0,
        # with negative-degree cohomology read as zero.
        below = beta[j - 3] if j >= 3 else 0
        dims.append(_solve_exact([below, beta[j - 1], None], f"degree {j}"))
    return tuple(dims)
