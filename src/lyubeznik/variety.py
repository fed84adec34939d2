"""Variety expressions: immutable syntax trees built from six atomic
constructors plus binary product and disjoint union.

Each atom is one class: its syntax name, its fields (the arguments of
``NAME(a,b,...)``, in order), its validator, its dimension and its
rendering live there and nowhere else.  Constructor constraints are
enforced at construction time, so every reachable tree describes a
nonsingular projective variety of dimension at least 1.  All values here
are frozen and safe to share.
"""

from dataclasses import dataclass


class SemanticError(ValueError):
    """A constructor constraint is violated (wrong arity, bad argument)."""


class DimensionMismatchError(SemanticError):
    """Disjoint union of operands with different dimensions."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SemanticError(message)


class VarietyExpr:
    """Base class for variety expressions.

    Every node stores its dimension ``dim`` when it is built.  It is a
    plain attribute, not a dataclass field, so equality, hashing and
    ``repr`` see only the constructor arguments.
    """

    dim: int

    def __str__(self) -> str:
        return render(self)


class Atom(VarietyExpr):
    """An atomic constructor ``name(a,b,...)``: the class attribute
    ``name`` is its syntax name and its fields are the arguments, in
    order.  The subclasses, in definition order, are the atoms the parser
    knows."""

    def text(self) -> str:
        # A dataclass lists its constructor fields, in order, in __match_args__.
        args = ",".join([str(getattr(self, f)) for f in self.__match_args__])
        return f"{self.name}({args})"


@dataclass(frozen=True)
class ProjSpace(Atom):
    """Projective space of dimension n >= 1."""

    name = "P"
    n: int

    def __post_init__(self):
        _require(self.n >= 1, f"P(n) requires n >= 1, got n={self.n}")
        object.__setattr__(self, "dim", self.n)


@dataclass(frozen=True)
class Grassmannian(Atom):
    """Grassmannian of k-dimensional subspaces of n-space, 0 < k < n."""

    name = "Gr"
    k: int
    n: int

    def __post_init__(self):
        _require(0 < self.k < self.n,
                 f"Gr(k,n) requires 0 < k < n, got k={self.k}, n={self.n}")
        object.__setattr__(self, "dim", self.k * (self.n - self.k))


@dataclass(frozen=True)
class Curve(Atom):
    """Nonsingular projective curve of genus g >= 0."""

    name = "Curve"
    g: int

    def __post_init__(self):
        _require(self.g >= 0, f"Curve(g) requires g >= 0, got g={self.g}")
        object.__setattr__(self, "dim", 1)


@dataclass(frozen=True)
class Abelian(Atom):
    """Abelian variety of dimension g >= 1."""

    name = "Ab"
    g: int

    def __post_init__(self):
        _require(self.g >= 1, f"Ab(g) requires g >= 1, got g={self.g}")
        object.__setattr__(self, "dim", self.g)


@dataclass(frozen=True)
class Hypersurface(Atom):
    """Nonsingular degree-d hypersurface in P^n, so of dimension n - 1."""

    name = "Hyp"
    n: int
    d: int

    def __post_init__(self):
        _require(self.n >= 2, f"Hyp(n,d) requires n >= 2, got n={self.n}")
        _require(self.d >= 1, f"Hyp(n,d) requires d >= 1, got d={self.d}")
        object.__setattr__(self, "dim", self.n - 1)


@dataclass(frozen=True)
class CompleteIntersection(Atom):
    """Nonsingular complete intersection in P^n of the given multidegree,
    written ``CI(n; d1,...,dc)``."""

    name = "CI"
    n: int
    degrees: tuple

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))
        c = len(self.degrees)
        _require(c >= 1, "CI(n; ...) requires at least one degree")
        _require(all(isinstance(d, int) and d >= 1 for d in self.degrees),
                 f"CI degrees must be integers >= 1, got {self.degrees}")
        _require(self.n - c >= 1,
                 f"CI(n; d1,...,dc) requires dimension n - c >= 1, "
                 f"got n={self.n}, c={c}")
        object.__setattr__(self, "dim", self.n - c)

    def text(self) -> str:
        return f"CI({self.n}; {','.join(str(d) for d in self.degrees)})"


@dataclass(frozen=True)
class Product(VarietyExpr):
    """Product of two varieties; dimensions add."""

    left: VarietyExpr
    right: VarietyExpr

    def __post_init__(self):
        object.__setattr__(self, "dim", self.left.dim + self.right.dim)


@dataclass(frozen=True)
class DisjointUnion(VarietyExpr):
    """Disjoint union of two varieties of the same dimension."""

    left: VarietyExpr
    right: VarietyExpr

    def __post_init__(self):
        dl, dr = self.left.dim, self.right.dim
        if dl != dr:
            raise DimensionMismatchError(
                f"disjoint union requires equal dimensions, got {dl} and {dr}")
        object.__setattr__(self, "dim", dl)


def fold(expr: VarietyExpr, leaf, join):
    """Evaluate ``expr`` bottom-up: ``leaf(atom)`` at each atom and
    ``join(node, left_value, right_value)`` at each product or union.

    The walk keeps its own stack, so the depth of the tree is not bounded
    by the interpreter's recursion limit.
    """
    values = []
    stack = [(expr, False)]
    while stack:
        node, operands_done = stack.pop()
        if operands_done:
            right = values.pop()
            values[-1] = join(node, values[-1], right)
        elif isinstance(node, Atom):
            values.append(leaf(node))
        else:
            stack += ((node, True), (node.right, False), (node.left, False))
    return values[0]


def dimension(expr: VarietyExpr) -> int:
    """Total dimension of the variety described by ``expr``.

    >>> dimension(Grassmannian(2, 5))
    6
    >>> dimension(Product(Curve(1), ProjSpace(1)))
    2
    >>> dimension(CompleteIntersection(5, (2, 2)))
    3
    """
    return expr.dim


def render(expr: VarietyExpr) -> str:
    """Canonical text for ``expr``; parses back to an equal tree.

    The product operator binds tighter than the union operator and both
    associate to the left, so parentheses appear only where the shape
    demands them.

    >>> render(Product(Curve(1), ProjSpace(1)))
    'Curve(1) x P(1)'
    >>> render(Product(DisjointUnion(ProjSpace(1), ProjSpace(1)), ProjSpace(2)))
    '(P(1) + P(1)) x P(2)'
    >>> render(CompleteIntersection(5, (2, 2)))
    'CI(5; 2,2)'
    """
    return fold(expr, lambda atom: atom.text(), _render_join)


# A union operand of a product, and a right operand that binds no tighter
# than its parent, need parentheses.
def _render_join(node: VarietyExpr, left: str, right: str) -> str:
    if isinstance(node, Product):
        if isinstance(node.left, DisjointUnion):
            left = f"({left})"
        if not isinstance(node.right, Atom):
            right = f"({right})"
        return f"{left} x {right}"
    if isinstance(node.right, DisjointUnion):
        right = f"({right})"
    return f"{left} + {right}"
