"""Variety expressions: immutable syntax trees built from six atomic
constructors plus binary product and disjoint union.

Each atom is one class: its syntax name, its fields (the arguments of
``NAME(a,b,...)``, in order), its validator, its dimension, its
rendering and the reading of its arguments live there and nowhere else.
Constructor constraints are enforced at construction time, so every
reachable tree describes a nonsingular projective variety of dimension
at least 1.  Every argument is a plain ``int``; a ``bool``, a ``float``
or any other number is refused, as it would render as text that is no
expression.

Every value class of the package derives from ``Value``, defined here
because every other module imports this one.  ``Value`` refuses every
assignment, so each constructor stores its slots through that slot's own
descriptor setter, bound once at module level after the class (such as
``_set_dim = VarietyExpr.dim.__set__``): one call per slot, with no name
looked up through the class hierarchy.

The tree walks live here and nowhere else, and none recurses:
``postorder`` (the equality key), ``render`` and ``fold``, which every
value computed from a tree goes through.

The package treats classes exactly: ``Value.__eq__`` compares
``type(...) is``, ``betti`` reads an atom's numbers from its exact type,
and the tree walks tell a node's kind by ``type(node) is Product`` or
``is DisjointUnion``, every other node being an atom.  A subclass of a
value class is therefore not supported.
"""


class Value:
    """An immutable value whose state is its constructor arguments, named
    once, in order, in ``fields`` (also the ``__slots__`` of the class
    that declares them).

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


_set_dim = VarietyExpr.dim.__set__


class Atom(VarietyExpr):
    """An atomic constructor ``name(a,b,...)``: the class attribute
    ``name`` is its syntax name and its fields are the arguments, in
    order.  The subclasses, in definition order, are the atoms the parser
    knows."""

    __slots__ = ()

    def text(self) -> str:
        args = ",".join([str(getattr(self, f)) for f in self.fields])
        return f"{self.name}({args})"

    @classmethod
    def _from_args(cls, values: list, semi: bool) -> "Atom":
        """The atom ``name(values)`` that ``text()`` writes; ``semi`` says
        whether a ";" followed the first value."""
        if semi:
            raise SemanticError(f"{cls.name} does not take ';' arguments (only CI does)")
        arity = len(cls.fields)
        if len(values) != arity:
            raise SemanticError(
                f"{cls.name} takes {arity} argument(s), got {len(values)}")
        return cls(*values)


class ProjSpace(Atom):
    """Projective space of dimension n >= 1."""

    name = "P"
    __slots__ = fields = ("n",)

    def __init__(self, n: int):
        if type(n) is not int or not n >= 1:
            raise SemanticError(f"P(n) requires n >= 1, got n={n}")
        _set_proj_n(self, n)
        _set_dim(self, n)


_set_proj_n = ProjSpace.n.__set__


class Grassmannian(Atom):
    """Grassmannian of k-dimensional subspaces of n-space, 0 < k < n."""

    name = "Gr"
    __slots__ = fields = ("k", "n")

    def __init__(self, k: int, n: int):
        if type(k) is not int or type(n) is not int or not 0 < k < n:
            raise SemanticError(f"Gr(k,n) requires 0 < k < n, got k={k}, n={n}")
        _set_gr_k(self, k)
        _set_gr_n(self, n)
        _set_dim(self, k * (n - k))


_set_gr_k = Grassmannian.k.__set__
_set_gr_n = Grassmannian.n.__set__


class Curve(Atom):
    """Nonsingular projective curve of genus g >= 0."""

    name = "Curve"
    __slots__ = fields = ("g",)

    def __init__(self, g: int):
        if type(g) is not int or not g >= 0:
            raise SemanticError(f"Curve(g) requires g >= 0, got g={g}")
        _set_curve_g(self, g)
        _set_dim(self, 1)


_set_curve_g = Curve.g.__set__


class Abelian(Atom):
    """Abelian variety of dimension g >= 1."""

    name = "Ab"
    __slots__ = fields = ("g",)

    def __init__(self, g: int):
        if type(g) is not int or not g >= 1:
            raise SemanticError(f"Ab(g) requires g >= 1, got g={g}")
        _set_ab_g(self, g)
        _set_dim(self, g)


_set_ab_g = Abelian.g.__set__


class Hypersurface(Atom):
    """Nonsingular degree-d hypersurface in P^n, so of dimension n - 1."""

    name = "Hyp"
    __slots__ = fields = ("n", "d")

    def __init__(self, n: int, d: int):
        if type(n) is not int or not n >= 2:
            raise SemanticError(f"Hyp(n,d) requires n >= 2, got n={n}")
        if type(d) is not int or not d >= 1:
            raise SemanticError(f"Hyp(n,d) requires d >= 1, got d={d}")
        _set_hyp_n(self, n)
        _set_hyp_d(self, d)
        _set_dim(self, n - 1)

    @property
    def degrees(self) -> tuple:
        """The multidegree ``(d,)``: a hypersurface is ``CI(n; d)``."""
        return (self.d,)


_set_hyp_n = Hypersurface.n.__set__
_set_hyp_d = Hypersurface.d.__set__


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
        for d in degrees:
            if type(d) is not int or d < 1:
                raise SemanticError(f"CI degrees must be integers >= 1, got {degrees}")
        if type(n) is not int or not n - c >= 1:
            raise SemanticError(f"CI(n; d1,...,dc) requires dimension n - c >= 1, "
                                f"got n={n}, c={c}")
        _set_ci_n(self, n)
        _set_ci_degrees(self, degrees)
        _set_dim(self, n - c)

    def text(self) -> str:
        return f"CI({self.n}; {','.join(str(d) for d in self.degrees)})"

    @classmethod
    def _from_args(cls, values: list, semi: bool) -> "CompleteIntersection":
        if not semi:
            raise SemanticError("CI takes the form CI(n; d1,...,dc)")
        return cls(values[0], tuple(values[1:]))


_set_ci_n = CompleteIntersection.n.__set__
_set_ci_degrees = CompleteIntersection.degrees.__set__


def postorder(expr: VarietyExpr) -> tuple:
    """The flat post-order of ``expr``, built without recursion: its
    atoms, and the class of each join after its two operands.  A node
    whose exact class is ``Product`` or ``DisjointUnion`` is a join, and
    every other node is an atom.

    >>> postorder(Product(Curve(1), ProjSpace(1)))
    (Curve(g=1), ProjSpace(n=1), <class 'lyubeznik.variety.Product'>)
    """
    items, stack = [], [expr]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is Product or cls is DisjointUnion:
            items.append(cls)
            stack += (node.left, node.right)
        else:
            items.append(node)
    return tuple(reversed(items))


def fold(expr: VarietyExpr, atom, product, union):
    """The value of ``expr`` bottom-up, without recursion: ``atom(node)``
    at each atom, once per distinct atom object, and ``product(values)``
    or ``union(values)`` at each maximal chain of joins of one kind, left-
    or right-nested, with its operands' values in order.  ``atom`` never
    returns None.

    >>> fold(DisjointUnion(Curve(1), DisjointUnion(Curve(2), Curve(3))),
    ...      lambda a: a.g, tuple, tuple)
    (1, 2, 3)
    """
    memo = {}  # each atom's value by id; the tree keeps every atom alive
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
                value = memo.get(id(node))
                if value is None:
                    value = memo[id(node)] = atom(node)
                values.append(value)
        if kind is None:
            return values[0]
        value = product(values) if kind is Product else union(values)
        kind, values, nodes = frames.pop()
        values.append(value)


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


class _Join(VarietyExpr):
    """The two operands of a product or a disjoint union."""

    __slots__ = fields = ("left", "right")
    _key = postorder

    def __reduce__(self):
        # Pickle and deepcopy a tree as its flat post-order, so that
        # neither recurses once per level.
        return _from_postorder, (postorder(self),)


_set_left = _Join.left.__set__
_set_right = _Join.right.__set__


class Product(_Join):
    """Product of two varieties; dimensions add."""

    __slots__ = ()

    def __init__(self, left: VarietyExpr, right: VarietyExpr):
        _set_left(self, left)
        _set_right(self, right)
        _set_dim(self, left.dim + right.dim)


class DisjointUnion(_Join):
    """Disjoint union of two varieties of the same dimension."""

    __slots__ = ()

    def __init__(self, left: VarietyExpr, right: VarietyExpr):
        dl, dr = left.dim, right.dim
        if dl != dr:
            raise DimensionMismatchError(
                f"disjoint union requires equal dimensions, got {dl} and {dr}")
        _set_left(self, left)
        _set_right(self, right)
        _set_dim(self, dl)


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
    """Canonical text for ``expr``; parses back to an equal tree, at any
    depth, unless an argument has more than 2000 digits, which the parser's
    literal rule refuses.

    The product operator binds tighter than the union operator and both
    associate to the left, so parentheses appear only where the shape
    demands them.  Each node's kind is read from its exact class.  Each
    distinct atom object is written once per call and its text reused
    wherever the tree holds it again.

    >>> render(Product(Curve(1), ProjSpace(1)))
    'Curve(1) x P(1)'
    >>> render(Product(DisjointUnion(ProjSpace(1), ProjSpace(1)), ProjSpace(2)))
    '(P(1) + P(1)) x P(2)'
    >>> render(CompleteIntersection(5, (2, 2)))
    'CI(5; 2,2)'
    """
    parts = []
    stack = [expr]  # nodes still to write and literal strings, last one first
    texts = {}  # each atom's text by id; the tree keeps every atom alive
    while stack:
        item = stack.pop()
        cls = type(item)
        if cls is str:
            parts.append(item)
        elif cls is Product:
            # A union operand of a product, and a right operand that is not
            # an atom, need parentheses.  Pushed right first, so that the
            # left operand is written first.
            right, left = item.right, item.left
            joined = type(right) is Product or type(right) is DisjointUnion
            stack += (")", right, "(") if joined else (right,)
            stack.append(" x ")
            stack += (")", left, "(") if type(left) is DisjointUnion else (left,)
        elif cls is DisjointUnion:
            # A union as the right operand of a union needs parentheses.
            right = item.right
            stack += (")", right, "(") if type(right) is DisjointUnion else (right,)
            stack += (" + ", item.left)
        else:
            key = id(item)
            text = texts.get(key)
            if text is None:
                text = texts[key] = item.text()
            parts.append(text)
    return "".join(parts)
