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
    including every index above d.  Both indices, ``dim_a``, ``corner``
    and each first-row entry must be plain ``int``s (not ``bool``), the
    entries nonnegative.

    >>> table = LyubeznikTable(3, (0, 0, 2, 0), 1)
    >>> table[2, 3], table[3, 3], table[1, 2]
    (2, 1, 0)
    """

    __slots__ = fields = ("dim_a", "first_row", "corner")

    def __init__(self, dim_a: int, first_row, corner: int):
        if type(dim_a) is not int or dim_a < 2:
            raise ValueError(
                f"the cone over a variety has integer dimension >= 2, got {dim_a!r}")
        first_row = tuple(first_row)
        if len(first_row) != dim_a + 1:
            raise ValueError(f"the first row must have {dim_a + 1} entries")
        if first_row[0] != 0 or first_row[dim_a] != 0:
            raise ValueError(f"lambda_(0,0) and lambda_(0,{dim_a}) must vanish")
        for j, v in enumerate(first_row):
            if type(v) is not int or v < 0:
                raise ValueError(
                    f"lambda_(0,{j}) must be a nonnegative integer, got {v!r}")
        if type(corner) is not int or corner < 1:
            raise ValueError("the corner entry counts components and must be "
                             f"a positive integer, got {corner!r}")
        _set_dim_a(self, dim_a)
        _set_first_row(self, first_row)
        _set_corner(self, corner)

    def __getitem__(self, key) -> int:
        if type(key) is not tuple or len(key) != 2:
            raise TypeError(f"a table index is a pair (i, j), got {key!r}")
        i, j = key
        if type(i) is not int or type(j) is not int:
            raise TypeError(f"table indices must be plain ints, got {key!r}")
        if i < 0 or j < 0:
            raise IndexError("table indices are nonnegative")
        d = self.dim_a
        if i > d or j > d:
            return 0
        if i == 0:
            return self.first_row[j]
        return self.last_column()[i - 1] if j == d else 0

    @staticmethod
    def _mirror(row, corner) -> tuple:
        """The last column from a first row ``row`` and a ``corner``: ``row``
        reversed down to its third entry, then ``corner``.  The one place
        the mirror is written; the command line applies it, through the
        class, to the strings of the entries as well."""
        return (*row[:1:-1], corner)

    def last_column(self) -> tuple:
        """lambda_{1,d}, ..., lambda_{d,d}: the first row reversed, then the
        corner."""
        return self._mirror(self.first_row, self.corner)

    def nonzero(self) -> tuple:
        """Nonzero entries as (i, j, value) triples in row-major order."""
        d = self.dim_a
        # A display allocates the tuple once, at its size; tuple() of a
        # generator would grow it in steps, which fragments the heap.
        return (*[(0, j, v) for j, v in enumerate(self.first_row) if v],
                *[(i, d, v) for i, v in enumerate(self.last_column(), 1) if v])


_set_dim_a = LyubeznikTable.dim_a.__set__
_set_first_row = LyubeznikTable.first_row.__set__
_set_corner = LyubeznikTable.corner.__set__


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

