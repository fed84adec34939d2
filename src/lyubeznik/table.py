"""Lyubeznik tables of the local ring at the vertex of the affine cone.

For a nonsingular equidimensional projective variety of dimension r the
whole (r+2) x (r+2) table is determined by the Betti vector: the first
row carries consecutive differences of Betti numbers, the last column
mirrors the first row, the corner counts connected components, and every
other entry vanishes.  The table therefore stores only the first row and
the corner, and derives every other entry when it is read.
"""

from .betti import BettiVector, check_lefschetz_admissible
from .variety import Value


class LyubeznikTable(Value):
    """(d+1) x (d+1) table of lambda_{i,j} values, where d = r + 1 is the
    dimension of the local ring at the cone vertex.

    Only ``first_row`` (lambda_{0,0}, ..., lambda_{0,d}) and ``corner``
    (lambda_{d,d}) are stored.  Reading ``table[i, j]`` derives the rest:
    lambda_{l,d} = lambda_{0,d+1-l} for 1 <= l <= d - 1, and zero elsewhere,
    including every index above d.

    >>> table = LyubeznikTable(3, (0, 0, 2, 0), 1)
    >>> table[2, 3], table[3, 3], table[1, 2]
    (2, 1, 0)
    """

    __slots__ = fields = ("dim_a", "first_row", "corner")

    def __init__(self, dim_a: int, first_row, corner: int):
        if dim_a < 2:
            raise ValueError(f"the cone over a variety has dimension >= 2, got {dim_a}")
        first_row = tuple(first_row)
        if len(first_row) != dim_a + 1:
            raise ValueError(f"the first row must have {dim_a + 1} entries")
        if first_row[0] != 0 or first_row[dim_a] != 0:
            raise ValueError(f"lambda_(0,0) and lambda_(0,{dim_a}) must vanish")
        if corner < 1:
            raise ValueError("the corner entry counts components and must be positive")
        object.__setattr__(self, "dim_a", dim_a)
        object.__setattr__(self, "first_row", first_row)
        object.__setattr__(self, "corner", corner)

    def __getitem__(self, key) -> int:
        i, j = key
        if i < 0 or j < 0:
            raise IndexError("table indices are nonnegative")
        d = self.dim_a
        if i > d or j > d:
            return 0
        if i == 0:
            return self.first_row[j]
        if j != d:
            return 0
        return self.corner if i == d else self.first_row[d + 1 - i]

    def last_column(self) -> tuple:
        """lambda_{1,d}, ..., lambda_{d,d}: the first row reversed, then the
        corner."""
        return self.first_row[:1:-1] + (self.corner,)

    def nonzero(self) -> tuple:
        """Nonzero entries as (i, j, value) triples in row-major order."""
        d = self.dim_a
        # A display allocates the tuple once, at its size; tuple() of a
        # generator would grow it in steps, which fragments the heap.
        return (*[(0, j, v) for j, v in enumerate(self.first_row) if v],
                *[(i, d, v) for i, v in enumerate(self.last_column(), 1) if v])


def lyubeznik_table(b: BettiVector) -> LyubeznikTable:
    """Complete Lyubeznik table of the cone-vertex local ring, computed
    from the Betti vector of the projective variety.

    The first row is lambda_{0,1} = beta_0 - 1, lambda_{0,2} = beta_1,
    and lambda_{0,j} = beta_{j-1} - beta_{j-3} for 3 <= j <= r; the last
    column repeats the first row in reverse (lambda_{l,r+1} =
    lambda_{0,r+2-l}); the corner lambda_{r+1,r+1} = beta_0 counts the
    connected components.  Everything else is zero.

    >>> lyubeznik_table(BettiVector(2, (1, 0, 1, 0, 1))).nonzero()
    ((3, 3, 1),)
    >>> lyubeznik_table(BettiVector(2, (1, 2, 2, 2, 1))).nonzero()
    ((0, 2, 2), (2, 3, 2), (3, 3, 1))

    Vectors that fail duality or hard Lefschetz would force negative
    entries, so they are rejected before any entry is computed:

    >>> lyubeznik_table(BettiVector(2, (1, 0, 0, 0, 1)))
    Traceback (most recent call last):
        ...
    lyubeznik.betti.AdmissibilityError: hard Lefschetz fails: beta_0 = 1 > beta_2 = 0
    """
    r = b.dim
    check_lefschetz_admissible(b)
    beta = b.betti
    row = [0, beta[0] - 1]
    if r >= 2:
        row.append(beta[1])
    row += [beta[j - 1] - beta[j - 3] for j in range(3, r + 1)]
    row.append(0)
    return LyubeznikTable(r + 1, tuple(row), beta[0])

