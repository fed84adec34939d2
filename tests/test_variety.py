"""Expression tree construction, dimensions, and the canonical renderer."""

import pytest

from lyubeznik import (
    Abelian,
    CompleteIntersection,
    Curve,
    DimensionMismatchError,
    DisjointUnion,
    Grassmannian,
    Hypersurface,
    Product,
    ProjSpace,
    SemanticError,
    betti,
    dimension,
    render,
)


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
])
def test_constructor_constraints_rejected(build):
    with pytest.raises(SemanticError):
        build()


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


def test_degrees_are_normalized_to_tuples():
    ci = CompleteIntersection(5, [2, 3])
    assert ci.degrees == (2, 3)
    assert hash(ci) == hash(CompleteIntersection(5, (2, 3)))


def test_deep_trees_need_no_recursion():
    # 5000 levels is five times the interpreter's default recursion limit
    depth = 5000
    unions = products = right_unions = ProjSpace(1)
    for _ in range(depth):
        unions = DisjointUnion(unions, ProjSpace(1))
        products = Product(products, ProjSpace(1))
        right_unions = DisjointUnion(ProjSpace(1), right_unions)
    assert dimension(unions) == dimension(right_unions) == 1
    assert dimension(products) == depth + 1
    assert render(unions) == " + ".join(["P(1)"] * (depth + 1))
    assert render(products) == " x ".join(["P(1)"] * (depth + 1))
    assert render(right_unions) == (
        "P(1) + (" * (depth - 1) + "P(1) + P(1)" + ")" * (depth - 1))
    assert betti(unions).betti == betti(right_unions).betti == (
        depth + 1, 0, depth + 1)
