"""Exact de Rham Betti vectors for variety expressions.

``betti`` returns the full vector (beta_0, ..., beta_{2r}) with
arbitrary-precision integer entries.  Vectors produced here satisfy
Poincare duality and the hard Lefschetz step inequalities; the checker
``check_lefschetz_admissible`` verifies those constraints for vectors of
unknown origin.  An atom's vector is ``betti(Atom(...))``, so a bad
argument raises the atom's ``SemanticError`` (a ``ValueError``).  All
functions are pure and all values immutable.
"""

from math import comb, prod
from operator import add

from .variety import (
    Abelian,
    Atom,
    CompleteIntersection,
    Curve,
    DimensionMismatchError,
    Grassmannian,
    Hypersurface,
    Product,
    ProjSpace,
    Value,
    VarietyExpr,
)


class AdmissibilityError(ValueError):
    """A Betti vector violates duality or a hard Lefschetz inequality;
    ``pair`` is the violated index pair, ``()`` if there is none."""

    def __init__(self, reason: str, pair: tuple = ()):
        super().__init__(reason)
        self.pair = pair


class InternalConsistencyError(RuntimeError):
    """A computed value failed an invariant it must satisfy; always a bug."""


class BettiVector(Value):
    """Dimension r together with the 2r + 1 Betti numbers beta_0..beta_{2r}.

    Construction checks only shape and nonnegativity, so vectors that fail
    duality or hard Lefschetz can be represented (and then rejected by
    ``check_lefschetz_admissible``).

    >>> BettiVector(1, (1, 2, 1)).betti
    (1, 2, 1)
    """

    __slots__ = fields = ("dim", "betti")

    def __init__(self, dim: int, betti):
        betti = tuple(betti)
        if dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {dim}")
        if len(betti) != 2 * dim + 1:
            raise ValueError(
                f"dimension {dim} needs {2 * dim + 1} entries, got {len(betti)}")
        for j, b in enumerate(betti):
            if not isinstance(b, int) or b < 0:
                raise ValueError(f"beta_{j} must be a nonnegative integer, got {b!r}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "betti", betti)

    def __getitem__(self, j: int) -> int:
        return self.betti[j]

    def __iter__(self):
        return iter(self.betti)

    def __len__(self) -> int:
        return len(self.betti)

    def __str__(self) -> str:
        return "(" + ", ".join(str(b) for b in self.betti) + ")"


def check_lefschetz_admissible(b: BettiVector) -> None:
    """Check beta_0 >= 1, Poincare duality, and the hard Lefschetz steps
    beta_j <= beta_{j+2} for j + 2 <= r.  Raises ``AdmissibilityError``
    carrying the first violated index pair; returns None when all hold.

    >>> check_lefschetz_admissible(BettiVector(2, (1, 0, 2, 0, 1)))
    >>> check_lefschetz_admissible(BettiVector(2, (1, 0, 0, 0, 1)))
    Traceback (most recent call last):
        ...
    lyubeznik.betti.AdmissibilityError: hard Lefschetz fails: beta_0 = 1 > beta_2 = 0
    """
    r, beta = b.dim, b.betti
    if beta[0] < 1:
        raise AdmissibilityError(f"beta_0 = {beta[0]} must be positive", (0, 0))
    for j in range(r):
        if beta[j] != beta[2 * r - j]:
            raise AdmissibilityError(
                f"duality fails: beta_{j} = {beta[j]} != beta_{2 * r - j} = {beta[2 * r - j]}",
                (j, 2 * r - j))
    for j in range(r - 1):
        if beta[j] > beta[j + 2]:
            raise AdmissibilityError(
                f"hard Lefschetz fails: beta_{j} = {beta[j]} > beta_{j + 2} = {beta[j + 2]}",
                (j, j + 2))


def _partitions_in_box(rows: int, cols: int) -> list:
    """Counts, by size, of the partitions fitting in a rows x cols box.

    Entry i is the number of partitions of i with at most ``rows`` parts,
    each part at most ``cols``: the q^i coefficient of the Gaussian
    binomial prod_{k=1..rows} (1 - q^(cols+k)) / (1 - q^k).  Multiplying by
    1 - q^m in place is c[t] -= c[t-m] for t descending, and dividing by
    1 - q^k is c[t] += c[t-k] for t ascending; modulo q^(total+1) both
    steps are exact, and the product is a polynomial of degree total.

    >>> _partitions_in_box(2, 2)
    [1, 1, 2, 1, 1]
    """
    total = rows * cols
    c = [1] + [0] * total
    for k in range(1, rows + 1):
        m = cols + k
        for t in range(total, m - 1, -1):
            c[t] -= c[t - m]
        for t in range(k, total + 1):
            c[t] += c[t - k]
    return c


def euler_char_ci(n: int, degrees) -> int:
    """Euler characteristic of a nonsingular complete intersection of the
    given multidegree in P^n, by exact coefficient extraction.

    The value is (prod of degrees) times the h^(n-c) coefficient of
    (1+h)^(n+1) / prod(1 + d*h).  Dividing a truncated series by 1 + d*h
    in place is the step c[i] -= d*c[i-1] for i = 1..order, so the whole
    computation stays in exact integers.

    >>> euler_char_ci(4, [5])
    -200
    >>> euler_char_ci(3, [4])
    24
    """
    ci = CompleteIntersection(n, degrees)
    order = ci.dim
    c = [comb(n + 1, i) for i in range(order + 1)]
    for d in ci.degrees:
        for i in range(1, order + 1):
            c[i] -= d * c[i - 1]
    return prod(ci.degrees) * c[order]


def _convolve(a: tuple, b: tuple) -> tuple:
    # Convolution commutes, so the shorter operand drives the outer loop;
    # zero entries of either add nothing and are skipped.
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for p, ap in enumerate(a):
        if ap:
            for n, bq in enumerate(b, p):
                if bq:
                    out[n] += ap * bq
    return tuple(out)


def kunneth(a: BettiVector, b: BettiVector) -> BettiVector:
    """Betti vector of a product: the convolution of the factor vectors.

    >>> str(kunneth(BettiVector(1, (1, 2, 1)), BettiVector(1, (1, 0, 1))))
    '(1, 2, 2, 2, 1)'
    """
    return BettiVector(a.dim + b.dim, _convolve(a.betti, b.betti))


def disjoint_union_betti(a: BettiVector, b: BettiVector) -> BettiVector:
    """Componentwise sum; the summands must have the same dimension."""
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"disjoint union requires equal dimensions, got {a.dim} and {b.dim}")
    return BettiVector(a.dim, tuple(map(add, a.betti, b.betti)))


def _grassmannian(a: Grassmannian) -> tuple:
    betti = [0] * (2 * a.dim + 1)
    betti[::2] = _partitions_in_box(a.k, a.n - a.k)
    return tuple(betti)


def _complete_intersection(n: int, degrees: tuple, r: int) -> tuple:
    # Off the middle degree the vector is P^r's (weak Lefschetz), whose
    # alternating sum there is r + r % 2; the Euler characteristic forces
    # the middle entry.  P^r's vector is admissible, so only the hard
    # Lefschetz step beta_{r-2} <= beta_r involves the middle: the vector is
    # admissible iff the middle is at least beta_{r-2}, which is 1 for even
    # r and 0 for odd r (r = 1 has no step at all).
    excess = euler_char_ci(n, degrees) - (r + r % 2)
    middle = -excess if r % 2 else excess
    if middle < (0 if r % 2 else 1):
        raise InternalConsistencyError(
            f"inadmissible complete intersection vector for n={n}, "
            f"degrees={degrees}: middle Betti number beta_{r} = {middle}")
    betti = [1, 0] * r + [1]
    betti[r] = middle
    return tuple(betti)


# The Betti numbers of each atom, read from its already validated fields.
_ATOM_BETTI = {
    ProjSpace: lambda a: (1, 0) * a.n + (1,),
    Grassmannian: _grassmannian,
    Curve: lambda a: (1, 2 * a.g, 1),
    Abelian: lambda a: tuple([comb(2 * a.g, j) for j in range(2 * a.g + 1)]),
    Hypersurface: lambda a: _complete_intersection(a.n, (a.d,), a.dim),
    CompleteIntersection: lambda a: _complete_intersection(a.n, a.degrees, a.dim),
}


def betti(expr: VarietyExpr) -> BettiVector:
    """Betti vector of an arbitrary variety expression: Kunneth at each
    product and sums at each disjoint union, evaluated bottom-up.

    The walk keeps its own stack and carries plain tuples; the tree
    already guarantees equal dimensions at each union, and one
    ``BettiVector`` is built, and checked, at the root.  The depth of the
    tree is not bounded by the interpreter's recursion limit.

    >>> str(betti(Product(Curve(1), ProjSpace(1))))
    '(1, 2, 2, 2, 1)'
    """
    values = []
    stack = [(expr, False)]
    while stack:
        node, operands_done = stack.pop()
        if operands_done:
            right = values.pop()
            values[-1] = (_convolve(values[-1], right) if isinstance(node, Product)
                          else tuple(map(add, values[-1], right)))
        elif isinstance(node, Atom):
            values.append(_ATOM_BETTI[type(node)](node))
        else:
            stack += ((node, True), (node.right, False), (node.left, False))
    return BettiVector(expr.dim, values[0])
