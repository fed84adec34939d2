"""Variety expressions: immutable syntax trees built from six atomic
constructors plus binary product and disjoint union.

Each atom is one class: its syntax name, its fields (the arguments of
``NAME(a,b,...)``, in order), its validator, its dimension and its
rendering live there and nowhere else.  Constructor constraints are
enforced at construction time, so every reachable tree describes a
nonsingular projective variety of dimension at least 1.

Every value class of the package derives from ``Value``, defined here
because every other module imports this one.
"""


class Value:
    """An immutable value whose state is its constructor arguments, named
    once, in order, in ``fields`` (also its ``__slots__``).

    Equality, hashing and pickling read ``_key()``: the constructor
    arguments, or for ``Product`` and ``DisjointUnion`` the tree's flat
    ``postorder``, which names exactly one tree.  ``repr`` prints the
    nesting with its own explicit stack.  Neither recurses once per level,
    so the depth of a tree is not bounded by the recursion limit."""

    __slots__ = fields = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set {name!r}: values are immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self.fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        # Values still to write and literal strings, last one first.
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if not isinstance(item, Value):
                parts.append(item)
                continue
            items = [type(item).__qualname__ + "("]
            for i, f in enumerate(item.fields):
                x = getattr(item, f)
                items += ((", " if i else "") + f + "=",
                          x if isinstance(x, Value) else repr(x))
            stack += reversed(items + [")"])
        return "".join(parts)

    def __reduce__(self):
        return type(self), self._key()


class SemanticError(ValueError):
    """A constructor constraint is violated (wrong arity, bad argument)."""


class DimensionMismatchError(SemanticError):
    """Disjoint union of operands with different dimensions."""


class VarietyExpr(Value):
    """Base class for variety expressions.  Every node stores its
    dimension ``dim`` when it is built, in a slot that is not a field."""

    __slots__ = ("dim",)

    def __str__(self) -> str:
        return render(self)


class Atom(VarietyExpr):
    """An atomic constructor ``name(a,b,...)``: the class attribute
    ``name`` is its syntax name and its fields are the arguments, in
    order.  The subclasses, in definition order, are the atoms the parser
    knows."""

    __slots__ = ()

    def text(self) -> str:
        args = ",".join([str(getattr(self, f)) for f in self.fields])
        return f"{self.name}({args})"


class ProjSpace(Atom):
    """Projective space of dimension n >= 1."""

    name = "P"
    __slots__ = fields = ("n",)

    def __init__(self, n: int):
        if not n >= 1:
            raise SemanticError(f"P(n) requires n >= 1, got n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", n)


class Grassmannian(Atom):
    """Grassmannian of k-dimensional subspaces of n-space, 0 < k < n."""

    name = "Gr"
    __slots__ = fields = ("k", "n")

    def __init__(self, k: int, n: int):
        if not 0 < k < n:
            raise SemanticError(f"Gr(k,n) requires 0 < k < n, got k={k}, n={n}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", k * (n - k))


class Curve(Atom):
    """Nonsingular projective curve of genus g >= 0."""

    name = "Curve"
    __slots__ = fields = ("g",)

    def __init__(self, g: int):
        if not g >= 0:
            raise SemanticError(f"Curve(g) requires g >= 0, got g={g}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "dim", 1)


class Abelian(Atom):
    """Abelian variety of dimension g >= 1."""

    name = "Ab"
    __slots__ = fields = ("g",)

    def __init__(self, g: int):
        if not g >= 1:
            raise SemanticError(f"Ab(g) requires g >= 1, got g={g}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "dim", g)


class Hypersurface(Atom):
    """Nonsingular degree-d hypersurface in P^n, so of dimension n - 1."""

    name = "Hyp"
    __slots__ = fields = ("n", "d")

    def __init__(self, n: int, d: int):
        if not n >= 2:
            raise SemanticError(f"Hyp(n,d) requires n >= 2, got n={n}")
        if not d >= 1:
            raise SemanticError(f"Hyp(n,d) requires d >= 1, got d={d}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "dim", n - 1)

    @property
    def degrees(self) -> tuple:
        """The multidegree ``(d,)``: a hypersurface is ``CI(n; d)``."""
        return (self.d,)


class CompleteIntersection(Atom):
    """Nonsingular complete intersection in P^n of the given multidegree,
    written ``CI(n; d1,...,dc)``."""

    name = "CI"
    __slots__ = fields = ("n", "degrees")

    def __init__(self, n: int, degrees):
        degrees = tuple(degrees)
        c = len(degrees)
        if not c >= 1:
            raise SemanticError("CI(n; ...) requires at least one degree")
        if not all(isinstance(d, int) and d >= 1 for d in degrees):
            raise SemanticError(f"CI degrees must be integers >= 1, got {degrees}")
        if not n - c >= 1:
            raise SemanticError(f"CI(n; d1,...,dc) requires dimension n - c >= 1, "
                                f"got n={n}, c={c}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "dim", n - c)

    def text(self) -> str:
        return f"CI({self.n}; {','.join(str(d) for d in self.degrees)})"


def postorder(expr: VarietyExpr) -> tuple:
    """The flat post-order of ``expr``, built without recursion: its
    atoms, and the class of each join after its two operands.

    >>> postorder(Product(Curve(1), ProjSpace(1)))
    (Curve(g=1), ProjSpace(n=1), <class 'lyubeznik.variety.Product'>)
    """
    items, stack = [], [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            items.append(node)
        else:
            items.append(type(node))
            stack += (node.left, node.right)
    return tuple(reversed(items))


def _reduce_join(self):
    # Pickle and deepcopy a tree as its flat post-order, so that neither
    # recurses once per level.
    return _from_postorder, (postorder(self),)


def _from_postorder(items):
    """The tree whose post-order is ``items``: each join class takes the
    last two values built as its operands."""
    values = []
    for item in items:
        if isinstance(item, type):
            right = values.pop()
            values[-1] = item(values[-1], right)
        else:
            values.append(item)
    return values[0]


class Product(VarietyExpr):
    """Product of two varieties; dimensions add."""

    __slots__ = fields = ("left", "right")
    _key = postorder
    __reduce__ = _reduce_join

    def __init__(self, left: VarietyExpr, right: VarietyExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "dim", left.dim + right.dim)


class DisjointUnion(VarietyExpr):
    """Disjoint union of two varieties of the same dimension."""

    __slots__ = fields = ("left", "right")
    _key = postorder
    __reduce__ = _reduce_join

    def __init__(self, left: VarietyExpr, right: VarietyExpr):
        dl, dr = left.dim, right.dim
        if dl != dr:
            raise DimensionMismatchError(
                f"disjoint union requires equal dimensions, got {dl} and {dr}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "dim", dl)


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
    parts = []
    stack = [expr]  # nodes still to write and literal strings, last one first
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Atom):
            parts.append(item.text())
        elif isinstance(item, Product):
            # A union operand of a product, and a right operand that is not
            # an atom, need parentheses.  Pushed right first, so that the
            # left operand is written first.
            right, left = item.right, item.left
            stack += (")", right, "(") if not isinstance(right, Atom) else (right,)
            stack.append(" x ")
            stack += (")", left, "(") if isinstance(left, DisjointUnion) else (left,)
        else:
            # A union as the right operand of a union needs parentheses.
            right = item.right
            stack += (")", right, "(") if isinstance(right, DisjointUnion) else (right,)
            stack += (" + ", item.left)
    return "".join(parts)
