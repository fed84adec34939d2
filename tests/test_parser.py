"""Parser behavior: grammar, errors, and the parse/render round trip."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import variety_exprs
from lyubeznik import (
    Abelian,
    CompleteIntersection,
    Curve,
    DimensionMismatchError,
    DisjointUnion,
    Grassmannian,
    Hypersurface,
    ParseError,
    Product,
    ProjSpace,
    SemanticError,
    dimension,
    parse_variety,
    render,
)


def test_parse_atoms():
    assert parse_variety("P(2)") == ProjSpace(2)
    assert parse_variety("Gr(2,4)") == Grassmannian(2, 4)
    assert parse_variety("Curve(0)") == Curve(0)
    assert parse_variety("Ab(3)") == Abelian(3)
    assert parse_variety("Hyp(4,5)") == Hypersurface(4, 5)
    assert parse_variety("CI(5; 2,3)") == CompleteIntersection(5, (2, 3))


def test_parse_operators():
    assert parse_variety("Curve(1) x P(1)") == Product(Curve(1), ProjSpace(1))
    assert parse_variety("P(2) + P(2)") == DisjointUnion(ProjSpace(2), ProjSpace(2))


def test_product_binds_tighter_than_union():
    expr = parse_variety("Curve(1) x P(1) + P(2)")
    assert expr == DisjointUnion(Product(Curve(1), ProjSpace(1)), ProjSpace(2))


def test_left_associativity():
    expr = parse_variety("P(1) x P(1) x P(2)")
    assert expr == Product(Product(ProjSpace(1), ProjSpace(1)), ProjSpace(2))
    expr = parse_variety("P(2) + P(2) + P(2)")
    assert expr == DisjointUnion(
        DisjointUnion(ProjSpace(2), ProjSpace(2)), ProjSpace(2))


def test_parentheses_override():
    expr = parse_variety("(P(1) + P(1)) x P(2)")
    assert expr == Product(DisjointUnion(ProjSpace(1), ProjSpace(1)), ProjSpace(2))
    assert parse_variety("((P(2)))") == ProjSpace(2)


def test_whitespace_insensitive():
    dense = parse_variety("Curve(1)x P(1)+P(2)")
    spread = parse_variety("  Curve( 1 )   x P(1)\t+\nP( 2 ) ")
    assert dense == spread == parse_variety("Curve(1) x P(1) + P(2)")


@pytest.mark.parametrize("text,position", [
    ("P(", 2),
    ("", 0),
    ("P(2", 3),
    ("P(2) x", 6),
    ("P()", 2),
    ("x P(2)", 0),
    ("P(2) P(3)", 5),
    ("P(2) %", 5),
    ("Q(2)", 0),
])
def test_syntax_errors_carry_positions(text, position):
    with pytest.raises(ParseError) as info:
        parse_variety(text)
    assert info.value.position == position


def test_syntax_errors_carry_expected_tokens():
    with pytest.raises(ParseError) as info:
        parse_variety("P(")
    assert "integer" in info.value.expected
    with pytest.raises(ParseError) as info:
        parse_variety("P(2")
    assert "')'" in info.value.expected


@pytest.mark.parametrize("text", [
    "Gr(3,3)",          # constraint violated
    "P(0)",             # dimension zero
    "P(2,3)",           # arity
    "Gr(2)",            # arity
    "Curve(1,2)",       # arity
    "CI(3, 4)",         # CI needs the semicolon form
    "P(2; 3)",          # only CI takes a semicolon
    "Hyp(1,2)",         # constraint violated
    "CI(3; 2,2,2)",     # dimension would drop below 1
])
def test_semantic_errors(text):
    with pytest.raises(SemanticError):
        parse_variety(text)


def test_union_dimension_mismatch_from_text():
    with pytest.raises(DimensionMismatchError):
        parse_variety("P(1) + P(2)")


def test_negative_argument_is_a_syntax_error():
    # integers in the grammar are unsigned digit runs
    with pytest.raises(ParseError):
        parse_variety("Curve(-1)")


def test_nesting_depth_is_bounded():
    deep = "(" * 500 + "P(1)" + ")" * 500
    with pytest.raises(ParseError):
        parse_variety(deep)


def test_canonical_examples_round_trip():
    for text in ["P(2)", "Gr(2,4)", "CI(5; 2,3)", "Curve(1) x P(1)",
                 "(P(1) + P(1)) x P(2)", "P(1) x (P(1) x P(2))",
                 "P(2) + (P(2) + P(2))"]:
        assert render(parse_variety(text)) == text


@settings(max_examples=200)
@given(variety_exprs())
def test_round_trip_parse_render(expr):
    assert parse_variety(render(expr)) == expr


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_parsing_is_total(text):
    # every input yields a tree or a structured error, never a crash
    try:
        parse_variety(text)
    except (ParseError, SemanticError):
        pass


def test_long_union_chain_round_trips():
    text = " + ".join(["P(1)"] * 20000)
    expr = parse_variety(text)
    assert dimension(expr) == 1
    assert render(expr) == text
