"""Exact-sequence oracle: hand-walked goldens and equivalence with the table
and with the benchmark's independent checker."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import variety_exprs
from corpus import corpus
from lyubeznik import (
    AdmissibilityError,
    BettiVector,
    DisjointUnion,
    betti,
    cone_local_derham_dims,
    gysin_last_column,
    lyubeznik_table,
)
from lyubeznik.oracle import component_count
from reference import checker, checker_tree


def test_hand_walked_goldens():
    # 0 -> k -> H^0 -> H^1 -> 0 gives 1; 0 -> H^1(V) -> H^2 -> 0 gives beta_1
    assert cone_local_derham_dims(BettiVector(2, (1, 2, 2, 2, 1))) == (0, 0, 2)
    assert cone_local_derham_dims(BettiVector(2, (1, 0, 1, 0, 1))) == (0, 0, 0)
    assert cone_local_derham_dims(BettiVector(1, (1, 4, 1))) == (0, 0)
    assert cone_local_derham_dims(BettiVector(1, (3, 0, 3))) == (0, 2)


def test_gysin_hand_walked_goldens():
    # 0 -> H^m(U) -> H^{m-1}(V) -> H^{m+1}(V) -> 0 for m = r + 2..2r + 1;
    # lambda_{1,d} is 0 and beta_{2r+1} = beta_{2r+2} = 0.
    assert gysin_last_column(BettiVector(2, (1, 2, 2, 2, 1))) == (0, 2, 1)
    assert gysin_last_column(BettiVector(2, (1, 0, 1, 0, 1))) == (0, 0, 1)
    assert gysin_last_column(BettiVector(1, (1, 4, 1))) == (0, 1)
    assert gysin_last_column(BettiVector(1, (3, 0, 3))) == (0, 3)
    # Curve(1) x P(2): (1, 2, 2, 2, 2, 2, 1) gives beta_4 - beta_6, beta_5, beta_6
    assert gysin_last_column(BettiVector(3, (1, 2, 2, 2, 2, 2, 1))) == (0, 1, 2, 1)


def test_length_is_dimension_plus_one():
    dims = cone_local_derham_dims(BettiVector(3, (1, 0, 1, 0, 1, 0, 1)))
    assert dims == (0, 0, 0, 0)


@settings(max_examples=150)
@given(variety_exprs())
def test_degree_zero_always_vanishes(expr):
    assert cone_local_derham_dims(betti(expr))[0] == 0


@settings(max_examples=150)
@given(variety_exprs())
def test_oracle_matches_table_first_row(expr):
    vec = betti(expr)
    table = lyubeznik_table(vec)
    dims = cone_local_derham_dims(vec)
    assert dims == tuple(table[0, j] for j in range(vec.dim + 1))


@settings(max_examples=150)
@given(variety_exprs())
def test_gysin_route_matches_table_last_column(expr):
    vec = betti(expr)
    assert gysin_last_column(vec) == lyubeznik_table(vec).last_column()


def test_routes_match_the_checker_on_the_corpora():
    exprs = [*corpus(), *corpus(max_dim=64)]
    assert len(exprs) == 480
    for expr in exprs:
        r, _, rows = checker.table(checker_tree(expr))
        vec = betti(expr)
        assert cone_local_derham_dims(vec) == tuple(rows[0][:r + 1])
        assert gysin_last_column(vec) == tuple([row[r + 1] for row in rows[1:]])
        assert component_count(expr) == rows[r + 1][r + 1]


@settings(max_examples=80)
@given(variety_exprs(max_dim=6), variety_exprs(max_dim=6))
def test_adding_a_component_raises_degree_one_by_its_beta_zero(a, b):
    b = b if b.dim == a.dim else a
    va, vb = betti(a), betti(b)
    before = cone_local_derham_dims(va)
    after = cone_local_derham_dims(betti(DisjointUnion(a, b)))
    assert after[1] == before[1] + vb[0]


def test_rank_overflow_raises():
    # beta_0 = 2 exceeds beta_2 = 1, so the degree-3 injection cannot exist
    vec = BettiVector(3, (2, 0, 1, 0, 1, 0, 2))
    with pytest.raises(AdmissibilityError):
        cone_local_derham_dims(vec)


def test_empty_variety_vector_raises():
    with pytest.raises(AdmissibilityError):
        cone_local_derham_dims(BettiVector(1, (0, 0, 0)))


def test_dimension_zero_rejected():
    with pytest.raises(ValueError):
        cone_local_derham_dims(BettiVector(0, (1,)))


@pytest.mark.parametrize("vec, degree", [
    (BettiVector(1, (0, 0, 0)), 1),             # beta_0 = 0 < 1 = dim k
    (BettiVector(3, (2, 0, 1, 0, 1, 0, 2)), 3),  # beta_0 = 2 > beta_2 = 1
])
def test_negative_dimension_message(vec, degree):
    with pytest.raises(AdmissibilityError) as info:
        cone_local_derham_dims(vec)
    assert str(info.value) == (
        f"exact sequence in degree {degree} forces the negative dimension -1; "
        "a required rank exceeds its target")
    assert info.value.pair == ()


def test_oracle_imports_only_betti_and_variety_from_the_package():
    # The cross-check is independent only if the oracle never reaches the
    # table code, directly or through the command line.  It reads vectors
    # from betti and folds trees through variety.
    source = Path(__file__).parents[1] / "src" / "lyubeznik" / "oracle.py"
    package_imports = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                # "from . import x" names its modules x; "from .x import y" is x
                package_imports.update([node.module] if node.module
                                       else [alias.name for alias in node.names])
            elif node.module.split(".")[0] == "lyubeznik":
                package_imports.add(node.module)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lyubeznik":
                    package_imports.add(alias.name)
    assert package_imports <= {"betti", "variety"}
