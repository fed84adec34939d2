"""Exact de Rham Betti vectors for variety expressions.

``betti`` returns the full vector (beta_0, ..., beta_{2r}) with
arbitrary-precision integer entries.  Vectors produced here satisfy
Poincare duality and the hard Lefschetz step inequalities; the checker
``check_lefschetz_admissible`` verifies those constraints for vectors of
unknown origin.  An atom's vector is ``betti(Atom(...))``, so a bad
argument raises the atom's ``SemanticError`` (a ``ValueError``); a
product's or a union's is ``betti(Product(x, y))`` or
``betti(DisjointUnion(x, y))``, which takes each chain of products, or of
unions, in one step.  All functions are pure and values immutable.

A product's vector is the coefficient list of the product of its factors'
Poincare polynomials (Kunneth).  ``_product`` multiplies a whole chain of
factors at once, by one of two routes chosen from the factors alone: the
entry-by-entry ``_convolve``, or Kronecker substitution, which packs each
factor into the integer P(2^s), multiplies those integers and reads the
product's coefficients back as base-2^s digits.  It packs only when the
pairs of nonzero entries that ``_convolve`` would multiply outnumber the
entries to pack and unpack by ``_PACK_PAIRS_PER_ENTRY``, and the slot of
s bits is at most ``_MAX_SLOT_BYTES`` wide.
"""

from math import comb, prod
from operator import add

from .variety import (
    Abelian,
    CompleteIntersection,
    Curve,
    DisjointUnion,
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

    Construction checks only shape and that ``dim`` and every entry are
    nonnegative plain ``int``s (not ``bool``), so vectors that fail
    duality or hard Lefschetz can be represented (and then rejected by
    ``check_lefschetz_admissible``).

    >>> BettiVector(1, (1, 2, 1)).betti
    (1, 2, 1)
    """

    __slots__ = fields = ("dim", "betti")

    def __init__(self, dim: int, betti):
        betti = tuple(betti)
        if type(dim) is not int or dim < 0:
            raise ValueError(f"dimension must be a nonnegative integer, got {dim!r}")
        if len(betti) != 2 * dim + 1:
            raise ValueError(
                f"dimension {dim} needs {2 * dim + 1} entries, got {len(betti)}")
        for j, b in enumerate(betti):
            if type(b) is not int or b < 0:
                raise ValueError(f"beta_{j} must be a nonnegative integer, got {b!r}")
        _set_vector_dim(self, dim)
        _set_vector_betti(self, betti)

    def __getitem__(self, j: int) -> int:
        return self.betti[j]

    def __iter__(self):
        return iter(self.betti)

    def __len__(self) -> int:
        return len(self.betti)

    def __str__(self) -> str:
        return "(" + ", ".join([str(b) for b in self.betti]) + ")"


_set_vector_dim = BettiVector.dim.__set__
_set_vector_betti = BettiVector.betti.__set__


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


def euler_char_ci(atom) -> int:
    """Euler characteristic of the nonsingular complete intersection
    ``atom``, a ``CompleteIntersection`` or a ``Hypersurface`` read as
    CI(n; d), by exact coefficient extraction from its validated fields.

    The value is (prod of degrees) times the h^(n-c) coefficient of
    (1+h)^(n+1) / prod(1 + d*h).  Dividing a truncated series by 1 + d*h
    in place is the step c[i] -= d*c[i-1] for i = 1..order, so the whole
    computation stays in exact integers.

    >>> euler_char_ci(Hypersurface(4, 5))
    -200
    >>> euler_char_ci(CompleteIntersection(3, (4,)))
    24
    """
    if not isinstance(atom, (Hypersurface, CompleteIntersection)):
        raise TypeError(f"not a Hyp or CI atom: {type(atom).__name__}")
    n, degrees, order = atom.n, atom.degrees, atom.dim
    c = [comb(n + 1, i) for i in range(order + 1)]
    for d in degrees:
        for i in range(1, order + 1):
            c[i] -= d * c[i - 1]
    return prod(degrees) * c[order]


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


# Packing pays once the pairs that ``_convolve`` would multiply outnumber
# the entries that packing converts (each factor's and the product's) by
# this factor; below it, the per-entry byte conversions cost more than
# the pairs they save.
_PACK_PAIRS_PER_ENTRY = 3
# The one multiplication of the packed route costs super-linearly in the
# slot width, and a single huge entry widens every slot; past this width
# the pairs of ``_convolve`` are cheaper.
_MAX_SLOT_BYTES = 32
# Looked up once: the packed route calls it for every entry.
_from_bytes = int.from_bytes


def _slot_bytes(factors) -> int:
    """Bytes per coefficient when ``factors`` are multiplied packed.

    Every entry is nonnegative, so no coefficient of any partial product,
    nor any entry of a factor, exceeds the product of the factors'
    coefficient sums (a zero factor counting as 1), and that bound fits in
    one byte more than its whole bytes."""
    return prod([sum(factor) or 1 for factor in factors]).bit_length() // 8 + 1


def _product(factors: list) -> tuple:
    """The product of the polynomials ``factors``, tuples of nonnegative
    integers: their ``_convolve`` fold or, where the rules in the module
    docstring choose it, the same numbers by Kronecker substitution at
    s = 8 * ``_slot_bytes(factors)`` bits, whose digits never carry."""
    value = factors[0]
    # An upper bound on the pairs the fold multiplies: a partial product
    # has at most as many nonzero entries as its length and as the
    # product of its factors' nonzero counts.
    nonzero, length, pairs = len(value) - value.count(0), len(value), 0
    for factor in factors[1:]:
        count = len(factor) - factor.count(0)
        pairs += nonzero * count
        length += len(factor) - 1
        nonzero = min(length, nonzero * count)
    if (pairs <= _PACK_PAIRS_PER_ENTRY * (length + sum(map(len, factors)))
            or (width := _slot_bytes(factors)) > _MAX_SLOT_BYTES):
        for factor in factors[1:]:
            value = _convolve(value, factor)
        return value
    data = prod([_from_bytes(b"".join([c.to_bytes(width, "little") for c in factor]),
                             "little")
                 for factor in factors]).to_bytes(width * length, "little")
    return tuple([_from_bytes(data[i:i + width], "little")
                  for i in range(0, width * length, width)])


def _grassmannian(a: Grassmannian) -> tuple:
    betti = [0] * (2 * a.dim + 1)
    betti[::2] = _partitions_in_box(a.k, a.n - a.k)
    return tuple(betti)


def _complete_intersection(atom) -> tuple:
    # Off the middle degree the vector is P^r's (weak Lefschetz), whose
    # alternating sum there is r + r % 2; the Euler characteristic forces
    # the middle entry.  P^r's vector is admissible, so only the hard
    # Lefschetz step beta_{r-2} <= beta_r involves the middle: the vector is
    # admissible iff the middle is at least beta_{r-2}, which is 1 for even
    # r and 0 for odd r (r = 1 has no step at all).
    r = atom.dim
    excess = euler_char_ci(atom) - (r + r % 2)
    middle = -excess if r % 2 else excess
    if middle < (0 if r % 2 else 1):
        raise InternalConsistencyError(
            f"inadmissible complete intersection vector for n={atom.n}, "
            f"degrees={atom.degrees}: middle Betti number beta_{r} = {middle}")
    betti = [1, 0] * r + [1]
    betti[r] = middle
    return tuple(betti)


# The Betti numbers of each atom, read from its already validated fields.
_ATOM_BETTI = {
    ProjSpace: lambda a: (1, 0) * a.n + (1,),
    Grassmannian: _grassmannian,
    Curve: lambda a: (1, 2 * a.g, 1),
    Abelian: lambda a: tuple([comb(2 * a.g, j) for j in range(2 * a.g + 1)]),
    Hypersurface: _complete_intersection,
    CompleteIntersection: _complete_intersection,
}


def betti(expr: VarietyExpr) -> BettiVector:
    """Betti vector of an arbitrary variety expression: Kunneth at each
    product and sums at each disjoint union, evaluated bottom-up.

    The walk keeps its own stack, so the depth of the tree is not bounded by
    the recursion limit.  A frame is a maximal run of joins of one kind,
    left- or right-nested, read as one join of its operands in order: a
    product chain is multiplied by one ``_product`` call, a union chain
    summed in one step.  Any other node is an atom, read by its exact type;
    each distinct atom object is expanded once per call, however often the
    tree holds it.  One ``BettiVector`` is built, and checked, at the root.

    >>> str(betti(Product(Curve(1), ProjSpace(1))))
    '(1, 2, 2, 2, 1)'
    >>> str(betti(DisjointUnion(DisjointUnion(ProjSpace(1), Curve(2)), Curve(1))))
    '(3, 6, 3)'
    """
    # Each atom's vector by id: the tree keeps every atom alive, so no id is reused.
    vectors = {}
    # A frame is its join kind, its operands' values so far and its nodes still
    # to visit, last one first; the root's frame has no kind and takes one value.
    frames = []
    kind, values, nodes = None, [], [expr]
    while True:
        while nodes:
            node = nodes.pop()
            cls = type(node)
            if cls is kind:
                nodes += (node.right, node.left)
            elif cls is Product or cls is DisjointUnion:
                frames.append((kind, values, nodes))
                kind, values, nodes = cls, [], [node.right, node.left]
            else:
                vector = vectors.get(id(node))
                if vector is None:
                    vector = vectors[id(node)] = _ATOM_BETTI[cls](node)
                values.append(vector)
        if kind is None:
            return BettiVector(expr.dim, values[0])
        # A display allocates the result once, at its size.  Two operands stay
        # on add: sum starts at 0, so it would copy the first entry once more.
        value = (_product(values) if kind is Product
                 else (*map(add, *values),) if len(values) == 2
                 else (*map(sum, zip(*values)),))
        kind, values, nodes = frames.pop()
        values.append(value)
