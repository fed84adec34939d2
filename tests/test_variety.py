"""Expression tree construction, dimensions, the canonical renderer, and
the value behaviour shared by every value class."""

import copy
import pickle
import sys
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyubeznik import (
    Abelian,
    BettiVector,
    CompleteIntersection,
    ComponentGraph,
    Curve,
    DimensionMismatchError,
    DisjointUnion,
    Grassmannian,
    Hypersurface,
    LyubeznikTable,
    Product,
    ProjSpace,
    SemanticError,
    betti,
    dimension,
    euler_char_ci,
    render,
)
from lyubeznik.variety import fold


def test_dimension_of_atoms():
    assert dimension(ProjSpace(3)) == 3
    assert dimension(Grassmannian(2, 5)) == 6
    assert dimension(Curve(7)) == 1
    assert dimension(Abelian(4)) == 4
    assert dimension(Hypersurface(4, 5)) == 3
    assert dimension(CompleteIntersection(5, (2, 2))) == 3


def test_dimension_of_compounds():
    assert dimension(Product(Curve(1), ProjSpace(1))) == 2
    assert dimension(Product(ProjSpace(2), Grassmannian(1, 3))) == 4
    assert dimension(DisjointUnion(ProjSpace(2), Abelian(2))) == 2


@pytest.mark.parametrize("build", [
    lambda: ProjSpace(0),
    lambda: ProjSpace(-1),
    lambda: Grassmannian(0, 2),
    lambda: Grassmannian(3, 3),
    lambda: Grassmannian(4, 3),
    lambda: Curve(-1),
    lambda: Abelian(0),
    lambda: Hypersurface(1, 2),
    lambda: Hypersurface(2, 0),
    lambda: CompleteIntersection(3, ()),
    lambda: CompleteIntersection(3, (2, 2, 2)),
    lambda: CompleteIntersection(4, (0,)),
    lambda: CompleteIntersection(2, (3, 3)),
    # Every argument is a plain int: these would render as P(1.5), P(True), ...
    lambda: ProjSpace(1.5),
    lambda: ProjSpace(True),
    lambda: Grassmannian(1, 2.5),
    lambda: Grassmannian(True, 2),
    lambda: Curve(True),
    lambda: Abelian(2.0),
    lambda: Hypersurface(3.0, 2),
    lambda: Hypersurface(3, True),
    lambda: CompleteIntersection(3.0, (2,)),
    lambda: CompleteIntersection(3, (True,)),
])
def test_constructor_constraints_rejected(build):
    with pytest.raises(SemanticError):
        build()


def test_valid_atoms_with_arguments_too_long_to_print():
    # A check formats its message only when it fails, so an argument past
    # the int-to-str digit limit builds a valid atom.
    huge = 10 ** 5000
    assert Hypersurface(60, huge).d == huge
    assert CompleteIntersection(68, (huge, 2)).dim == 66
    assert euler_char_ci(CompleteIntersection(5, (huge,))) % huge == 0


def test_disjoint_union_requires_equal_dimensions():
    with pytest.raises(DimensionMismatchError):
        DisjointUnion(ProjSpace(1), ProjSpace(2))
    # equal dimensions are fine even for different kinds
    DisjointUnion(Curve(2), ProjSpace(1))


def test_dimension_zero_is_unrepresentable():
    # every atom has dimension >= 1, so no tree can reach dimension 0
    with pytest.raises(SemanticError):
        ProjSpace(0)
    with pytest.raises(SemanticError):
        CompleteIntersection(2, (1, 1))


def test_render_atoms():
    assert render(ProjSpace(2)) == "P(2)"
    assert render(Grassmannian(2, 4)) == "Gr(2,4)"
    assert render(Curve(0)) == "Curve(0)"
    assert render(Abelian(3)) == "Ab(3)"
    assert render(Hypersurface(4, 5)) == "Hyp(4,5)"
    assert render(CompleteIntersection(5, (2, 3))) == "CI(5; 2,3)"


def test_render_operator_precedence():
    a, b, c = ProjSpace(1), ProjSpace(1), ProjSpace(2)
    assert render(Product(Product(a, b), c)) == "P(1) x P(1) x P(2)"
    assert render(Product(a, Product(b, c))) == "P(1) x (P(1) x P(2))"
    assert render(Product(DisjointUnion(a, b), c)) == "(P(1) + P(1)) x P(2)"
    assert render(DisjointUnion(Product(a, b), c)) == "P(1) x P(1) + P(2)"
    u = DisjointUnion(a, b)
    assert render(DisjointUnion(u, a)) == "P(1) + P(1) + P(1)"
    assert render(DisjointUnion(a, u)) == "P(1) + (P(1) + P(1))"


def test_str_is_render():
    expr = Product(Curve(1), ProjSpace(1))
    assert str(expr) == render(expr) == "Curve(1) x P(1)"


def test_structural_equality():
    assert Product(Curve(1), ProjSpace(1)) == Product(Curve(1), ProjSpace(1))
    assert Product(Curve(1), ProjSpace(1)) != Product(ProjSpace(1), Curve(1))
    assert CompleteIntersection(5, [2, 3]) == CompleteIntersection(5, (2, 3))


# Two dimension-1 atoms with equal field values but different classes.
_LINES = st.sampled_from([ProjSpace(1), Curve(1)])
# (inner, outer) joins of a three-atom tree: a union of a product and an
# atom would mix dimensions 2 and 1.
_JOIN_PAIRS = st.sampled_from([(Product, Product), (DisjointUnion, DisjointUnion),
                               (DisjointUnion, Product)])


@st.composite
def _small_trees(draw):
    """Trees of two or three dimension-1 atoms, so that equal atoms in
    different shapes are common."""
    a, b = draw(_LINES), draw(_LINES)
    if draw(st.booleans()):
        return draw(st.sampled_from([Product, DisjointUnion]))(a, b)
    c = draw(_LINES)
    inner, outer = draw(_JOIN_PAIRS)
    return outer(inner(a, b), c) if draw(st.booleans()) else outer(a, inner(b, c))


@settings(max_examples=300)
@given(_small_trees(), _small_trees())
def test_equality_sees_shape(a, b):
    # The renderer writes every shape differently, so equal trees are
    # exactly the trees with equal text.
    assert (a == b) == (render(a) == render(b))
    if a == b:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


def test_degrees_are_normalized_to_tuples():
    ci = CompleteIntersection(5, [2, 3])
    assert ci.degrees == (2, 3)
    assert hash(ci) == hash(CompleteIntersection(5, (2, 3)))


def _deep_trees(depth):
    unions = products = right_unions = ProjSpace(1)
    for _ in range(depth):
        unions = DisjointUnion(unions, ProjSpace(1))
        products = Product(products, ProjSpace(1))
        right_unions = DisjointUnion(ProjSpace(1), right_unions)
    return unions, products, right_unions


def test_deep_trees_need_no_recursion():
    # 5000 levels is five times the interpreter's default recursion limit
    depth = 5000
    unions, products, right_unions = _deep_trees(depth)
    assert dimension(unions) == dimension(right_unions) == 1
    assert dimension(products) == depth + 1
    assert render(unions) == " + ".join(["P(1)"] * (depth + 1))
    assert render(products) == " x ".join(["P(1)"] * (depth + 1))
    assert render(right_unions) == (
        "P(1) + (" * (depth - 1) + "P(1) + P(1)" + ")" * (depth - 1))
    assert betti(unions).betti == betti(right_unions).betti == (
        depth + 1, 0, depth + 1)
    # Equality, hashing and repr walk the trees too: each tree against a
    # second build of it, and its repr against the dataclass form.  So do
    # pickle and deepcopy, through the trees' flat post-order.
    one = "ProjSpace(n=1)"
    left_nested = f", right={one})" * depth
    reprs = ("DisjointUnion(left=" * depth + one + left_nested,
             "Product(left=" * depth + one + left_nested,
             f"DisjointUnion(left={one}, right=" * depth + one + ")" * depth)
    for tree, again, text in zip((unions, products, right_unions),
                                 _deep_trees(depth), reprs):
        assert tree == again and tree is not again
        assert hash(tree) == hash(again)
        assert repr(tree) == text
        assert pickle.loads(pickle.dumps(tree)) == tree
        assert copy.deepcopy(tree) == tree


def _fold_shape(expr):
    """``expr`` folded to nested ("x" or "+", operands) pairs of its atoms'
    genera, so every chain the fold hands a step shows in the result."""
    return fold(expr, lambda atom: atom.g,
                lambda values: ("x", tuple(values)), lambda values: ("+", tuple(values)))


def test_fold_calls_atom_once_per_distinct_object():
    shared, equal = Curve(1), Curve(1)
    tree = Product(DisjointUnion(shared, equal), DisjointUnion(equal, shared))
    calls = []
    assert fold(tree, lambda atom: calls.append(atom) or 1, prod, sum) == 4
    # Equal atoms that are two objects are two calls; each object is one.
    assert len(calls) == 2
    assert {id(atom) for atom in calls} == {id(shared), id(equal)}


def test_fold_hands_each_maximal_chain_over_in_order():
    c = [Curve(g) for g in range(6)]
    left = DisjointUnion(DisjointUnion(DisjointUnion(c[0], c[1]), c[2]), c[3])
    right = DisjointUnion(c[0], DisjointUnion(c[1], DisjointUnion(c[2], c[3])))
    both = DisjointUnion(DisjointUnion(c[0], c[1]), DisjointUnion(c[2], c[3]))
    for tree in (left, right, both):
        assert _fold_shape(tree) == ("+", (0, 1, 2, 3))
    # A change of join kind ends the chain: each run is its own step.
    mixed = Product(Product(DisjointUnion(c[0], c[1]), c[2]),
                    DisjointUnion(Product(c[3], c[4]), Product(c[5], c[0])))
    assert _fold_shape(mixed) == (
        "x", (("+", (0, 1)), 2, ("+", (("x", (3, 4)), ("x", (5, 0))))))
    assert _fold_shape(c[5]) == 5


def test_fold_of_a_tree_deeper_than_the_recursion_limit():
    # The join kind changes at every level, so each level is a frame, and a
    # right-nested chain as deep reaches its step as one list.
    depth = sys.getrecursionlimit() + 1
    tree = ProjSpace(1)
    for k in range(depth):
        tree = DisjointUnion(Product(tree, ProjSpace(1)), ProjSpace(k + 2))
    assert fold(tree, lambda atom: 1, prod, sum) == depth + 1
    _, _, right_unions = _deep_trees(depth)
    lengths = []
    assert fold(right_unions, lambda atom: 1, prod,
                lambda values: lengths.append(len(values)) or 0) == 0
    assert lengths == [depth + 1]


# One instance of every value class and the repr a frozen dataclass of the
# same fields prints for it.
_VALUES = [
    (lambda: ProjSpace(1), "ProjSpace(n=1)"),
    (lambda: Grassmannian(2, 4), "Grassmannian(k=2, n=4)"),
    (lambda: Curve(1), "Curve(g=1)"),
    (lambda: Abelian(2), "Abelian(g=2)"),
    (lambda: Hypersurface(4, 5), "Hypersurface(n=4, d=5)"),
    (lambda: CompleteIntersection(5, [2, 3]), "CompleteIntersection(n=5, degrees=(2, 3))"),
    (lambda: Product(Curve(1), ProjSpace(1)),
     "Product(left=Curve(g=1), right=ProjSpace(n=1))"),
    (lambda: DisjointUnion(ProjSpace(1), Curve(1)),
     "DisjointUnion(left=ProjSpace(n=1), right=Curve(g=1))"),
    (lambda: BettiVector(1, (1, 2, 1)), "BettiVector(dim=1, betti=(1, 2, 1))"),
    (lambda: LyubeznikTable(3, (0, 0, 2, 0), 1),
     "LyubeznikTable(dim_a=3, first_row=(0, 0, 2, 0), corner=1)"),
    (lambda: ComponentGraph([["A", 2]]), "ComponentGraph(components=(('A', 2),), intersections=())"),
]


@pytest.mark.parametrize("build, text", _VALUES, ids=[t[:t.index("(")] for _, t in _VALUES])
def test_value_behaviour(build, text):
    value, rebuilt = build(), build()
    assert repr(value) == text
    assert value == rebuilt and hash(value) == hash(rebuilt)
    # Values of different classes differ, even with equal fields, such as
    # ProjSpace(1) and Curve(1).
    assert all(value != other() for other, _ in _VALUES if other is not build)
    first_field = text[text.index("(") + 1:text.index("=")]
    with pytest.raises(AttributeError):
        setattr(value, first_field, getattr(value, first_field))
    assert value == rebuilt
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


@pytest.mark.parametrize("build, text", _VALUES, ids=[t[:t.index("(")] for _, t in _VALUES])
def test_every_slot_is_read_only(build, text):
    # Constructors store their slots through the slots' own descriptors;
    # from outside, every field and ``dim`` refuses assignment and
    # deletion, and no instance has a ``__dict__`` to take a new name.
    value = build()
    names = [*value.fields, *(["dim"] if hasattr(value, "dim") else [])]
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(TypeError):
        vars(value)
