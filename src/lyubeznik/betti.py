"""Exact de Rham Betti vectors for variety expressions.

Every constructor returns the full vector (beta_0, ..., beta_{2r}) with
arbitrary-precision integer entries.  Vectors produced here satisfy
Poincare duality and the hard Lefschetz step inequalities; the checker
``check_lefschetz_admissible`` verifies those constraints for vectors of
unknown origin.  The constructors check their arguments with the
validator of the matching atom, so a bad argument raises its
``SemanticError`` (a ``ValueError``).  All functions are pure and all
values immutable.
"""

from dataclasses import dataclass
from math import comb, prod

from .variety import (
    Abelian,
    CompleteIntersection,
    Curve,
    DimensionMismatchError,
    Grassmannian,
    Hypersurface,
    Product,
    ProjSpace,
    VarietyExpr,
    fold,
)


class AdmissibilityError(ValueError):
    """A Betti vector violates duality or a hard Lefschetz inequality."""


class InternalConsistencyError(RuntimeError):
    """A computed value failed an invariant it must satisfy; always a bug."""


@dataclass(frozen=True)
class BettiVector:
    """Dimension r together with the 2r + 1 Betti numbers beta_0..beta_{2r}.

    Construction checks only shape and nonnegativity, so vectors that fail
    duality or hard Lefschetz can be represented (and then rejected by
    ``check_lefschetz_admissible``).

    >>> BettiVector(1, (1, 2, 1)).betti
    (1, 2, 1)
    """

    dim: int
    betti: tuple

    def __post_init__(self):
        object.__setattr__(self, "betti", tuple(self.betti))
        if self.dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {self.dim}")
        if len(self.betti) != 2 * self.dim + 1:
            raise ValueError(
                f"dimension {self.dim} needs {2 * self.dim + 1} entries, "
                f"got {len(self.betti)}")
        for j, b in enumerate(self.betti):
            if not isinstance(b, int) or b < 0:
                raise ValueError(
                    f"beta_{j} must be a nonnegative integer, got {b!r}")

    def __getitem__(self, j: int) -> int:
        return self.betti[j]

    def __iter__(self):
        return iter(self.betti)

    def __len__(self) -> int:
        return len(self.betti)

    def __str__(self) -> str:
        return "(" + ", ".join(str(b) for b in self.betti) + ")"


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of ``check_lefschetz_admissible``; truthy iff the vector passed."""

    ok: bool
    reason: str = ""
    pair: tuple = ()

    def __bool__(self) -> bool:
        return self.ok


def check_lefschetz_admissible(b: BettiVector) -> AdmissibilityReport:
    """Check beta_0 >= 1, Poincare duality, and the hard Lefschetz steps
    beta_j <= beta_{j+2} for j + 2 <= r.  Reports the first violated
    index pair.

    >>> bool(check_lefschetz_admissible(BettiVector(2, (1, 0, 2, 0, 1))))
    True
    >>> check_lefschetz_admissible(BettiVector(2, (1, 0, 0, 0, 1))).pair
    (0, 2)
    >>> check_lefschetz_admissible(BettiVector(2, (1, 0, 2, 0, 2))).pair
    (0, 4)
    """
    r = b.dim
    if b[0] < 1:
        return AdmissibilityReport(False, f"beta_0 = {b[0]} must be positive", (0, 0))
    for j in range(r):
        if b[j] != b[2 * r - j]:
            return AdmissibilityReport(
                False,
                f"duality fails: beta_{j} = {b[j]} != beta_{2 * r - j} = {b[2 * r - j]}",
                (j, 2 * r - j))
    for j in range(r - 1):
        if b[j] > b[j + 2]:
            return AdmissibilityReport(
                False,
                f"hard Lefschetz fails: beta_{j} = {b[j]} > beta_{j + 2} = {b[j + 2]}",
                (j, j + 2))
    return AdmissibilityReport(True)


def betti_projective_space(n: int) -> BettiVector:
    """Betti vector of P^n: 1 in every even degree.

    >>> str(betti_projective_space(3))
    '(1, 0, 1, 0, 1, 0, 1)'
    """
    ProjSpace(n)
    return BettiVector(n, tuple(1 if j % 2 == 0 else 0 for j in range(2 * n + 1)))


def _partitions_in_box(rows: int, cols: int) -> list:
    """Counts, by size, of the partitions fitting in a rows x cols box.

    Entry i is the number of partitions of i with at most ``rows`` parts,
    each part at most ``cols``.  Dynamic programming over part values with
    a budget on the number of parts; no polynomial division involved.

    >>> _partitions_in_box(2, 2)
    [1, 1, 2, 1, 1]
    """
    total = rows * cols
    # counts[p][i]: partitions of i into exactly p parts, all values <= the
    # largest value processed so far
    counts = [[0] * (total + 1) for _ in range(rows + 1)]
    counts[0][0] = 1
    for value in range(1, cols + 1):
        for p in range(1, rows + 1):
            lower = counts[p - 1]
            row = counts[p]
            for i in range(value, total + 1):
                row[i] += lower[i - value]
    return [sum(counts[p][i] for p in range(rows + 1)) for i in range(total + 1)]


def betti_grassmannian(k: int, n: int) -> BettiVector:
    """Betti vector of the Grassmannian of k-planes in n-space.

    beta_{2i} counts the partitions of i inside a k x (n-k) box; the odd
    Betti numbers vanish.

    >>> str(betti_grassmannian(2, 4))
    '(1, 0, 1, 0, 2, 0, 1, 0, 1)'
    """
    r = Grassmannian(k, n).dim
    counts = _partitions_in_box(k, n - k)
    betti = [0] * (2 * r + 1)
    for i, c in enumerate(counts):
        betti[2 * i] = c
    return BettiVector(r, tuple(betti))


def betti_curve(g: int) -> BettiVector:
    """Betti vector (1, 2g, 1) of a nonsingular curve of genus g."""
    Curve(g)
    return BettiVector(1, (1, 2 * g, 1))


def betti_abelian(g: int) -> BettiVector:
    """Betti vector of a g-dimensional abelian variety: binomial row 2g.

    >>> str(betti_abelian(2))
    '(1, 4, 6, 4, 1)'
    """
    Abelian(g)
    return BettiVector(g, tuple(comb(2 * g, j) for j in range(2 * g + 1)))


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


def betti_complete_intersection(n: int, degrees) -> BettiVector:
    """Betti vector of a nonsingular complete intersection in P^n.

    Away from the middle degree the vector matches projective space (weak
    Lefschetz); the middle entry is whatever the Euler characteristic
    forces it to be.

    >>> str(betti_complete_intersection(4, [5]))
    '(1, 0, 1, 204, 1, 0, 1)'
    >>> str(betti_complete_intersection(3, [4]))
    '(1, 0, 22, 0, 1)'
    """
    ci = CompleteIntersection(n, degrees)
    degrees, r = ci.degrees, ci.dim
    chi = euler_char_ci(n, degrees)
    betti = [1 if j % 2 == 0 else 0 for j in range(2 * r + 1)]
    betti[r] = 0
    off_middle = sum(b if j % 2 == 0 else -b for j, b in enumerate(betti))
    middle = chi - off_middle if r % 2 == 0 else -(chi - off_middle)
    if middle < 0:
        raise InternalConsistencyError(
            f"middle Betti number came out negative ({middle}) "
            f"for n={n}, degrees={degrees}")
    betti[r] = middle
    vec = BettiVector(r, tuple(betti))
    report = check_lefschetz_admissible(vec)
    if not report:
        raise InternalConsistencyError(
            f"inadmissible complete intersection vector for n={n}, "
            f"degrees={degrees}: {report.reason}")
    return vec


def kunneth(a: BettiVector, b: BettiVector) -> BettiVector:
    """Betti vector of a product: the convolution of the factor vectors.

    >>> str(kunneth(BettiVector(1, (1, 2, 1)), betti_projective_space(1)))
    '(1, 2, 2, 2, 1)'
    """
    out = [0] * (len(a) + len(b) - 1)
    for p, ap in enumerate(a):
        if ap:
            for q, bq in enumerate(b):
                out[p + q] += ap * bq
    return BettiVector(a.dim + b.dim, tuple(out))


def disjoint_union_betti(a: BettiVector, b: BettiVector) -> BettiVector:
    """Componentwise sum; the summands must have the same dimension."""
    if a.dim != b.dim:
        raise DimensionMismatchError(
            f"disjoint union requires equal dimensions, got {a.dim} and {b.dim}")
    return BettiVector(a.dim, tuple(x + y for x, y in zip(a, b)))


# The Betti vector of each atom, from its fields.
_ATOM_BETTI = {
    ProjSpace: lambda a: betti_projective_space(a.n),
    Grassmannian: lambda a: betti_grassmannian(a.k, a.n),
    Curve: lambda a: betti_curve(a.g),
    Abelian: lambda a: betti_abelian(a.g),
    Hypersurface: lambda a: betti_complete_intersection(a.n, (a.d,)),
    CompleteIntersection: lambda a: betti_complete_intersection(a.n, a.degrees),
}


def betti(expr: VarietyExpr) -> BettiVector:
    """Betti vector of an arbitrary variety expression.

    >>> str(betti(Product(Curve(1), ProjSpace(1))))
    '(1, 2, 2, 2, 1)'
    """
    return fold(expr, lambda atom: _ATOM_BETTI[type(atom)](atom), _betti_join)


def _betti_join(node: VarietyExpr, a: BettiVector, b: BettiVector) -> BettiVector:
    return kunneth(a, b) if isinstance(node, Product) else disjoint_union_betti(a, b)
