"""End-to-end acceptance checks, one test per criterion.

Every comparison is exact integer equality.  Each test prints a single
``ACCEPTANCE NN <name>: PASS`` (or FAIL) line; run with ``-s`` to see
them.  The corpus-driven checks share the session-wide expression list
from conftest, which holds 240 seeded expressions of dimension <= 10.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lyubeznik import (
    Abelian,
    AdmissibilityError,
    BettiVector,
    CompleteIntersection,
    ComponentGraph,
    Curve,
    Grassmannian,
    Hypersurface,
    ProjSpace,
    betti,
    check_lefschetz_admissible,
    cone_local_derham_dims,
    corner_from_graph,
    euler_char_ci,
    lyubeznik_table,
    parse_variety,
)


def criterion(number, name):
    """Print one PASS/FAIL line for the wrapped acceptance check."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")

        return run

    return wrap


@criterion(1, "projective plane golden table")
def test_01_projective_plane_table():
    table = lyubeznik_table(betti(parse_variety("P(2)")))
    assert table.nonzero() == ((3, 3, 1),)


@criterion(2, "elliptic curve times line golden table")
def test_02_product_curve_line_table():
    table = lyubeznik_table(betti(parse_variety("Curve(1) x P(1)")))
    assert table.nonzero() == ((0, 2, 2), (2, 3, 2), (3, 3, 1))
    assert table[2, 3] == table[0, 2]


@criterion(3, "quintic threefold golden table")
def test_03_quintic_threefold():
    vec = betti(parse_variety("Hyp(4,5)"))
    assert tuple(vec) == (1, 0, 1, 204, 1, 0, 1)
    chi = euler_char_ci(Hypersurface(4, 5))
    assert chi == -200
    assert sum((-1) ** j * vec[j] for j in range(len(vec))) == chi
    table = lyubeznik_table(vec)
    assert table.nonzero() == ((4, 4, 1),)


@criterion(4, "exact-sequence oracle equals table first row")
def test_04_oracle_matches_table_row(expr_corpus):
    assert len(expr_corpus) >= 200
    for expr in expr_corpus:
        vec = betti(expr)
        assert vec.dim <= 10
        table = lyubeznik_table(vec)
        dims = cone_local_derham_dims(vec)
        assert tuple(dims) == tuple(table[0, j] for j in range(vec.dim + 1))


@criterion(5, "zero region below the last column")
def test_05_zero_region(expr_corpus):
    for expr in expr_corpus:
        table = lyubeznik_table(betti(expr))
        d = table.dim_a
        for i in range(1, d + 1):
            for j in range(d):
                assert table[i, j] == 0


@criterion(6, "telescoping first-row sums")
def test_06_telescoping_sums(expr_corpus):
    for expr in expr_corpus:
        vec = betti(expr)
        table = lyubeznik_table(vec)
        r = vec.dim
        for k in range(1, r // 2 + 1):
            assert sum(table[0, 2 * t] for t in range(1, k + 1)) == vec[2 * k - 1]
        for k in range((r + 1) // 2):
            assert sum(table[0, 2 * t + 1] for t in range(k + 1)) == vec[2 * k] - 1


@criterion(7, "constructor admissibility and mutation rejection")
def test_07_admissibility(expr_corpus):
    constructed = [betti(ProjSpace(n)) for n in range(1, 11)]
    constructed += [
        betti(Grassmannian(k, n))
        for n in range(2, 9)
        for k in range(1, n)
    ]
    constructed += [betti(Curve(g)) for g in range(7)]
    constructed += [betti(Abelian(g)) for g in range(1, 6)]
    constructed += [
        betti(CompleteIntersection(n, degrees))
        for n, degrees in [
            (2, (2,)),
            (3, (2,)),
            (3, (4,)),
            (4, (5,)),
            (4, (2, 2)),
            (5, (2, 3)),
            (6, (2, 2, 2)),
            (6, (3, 3)),
            (7, (4,)),
        ]
    ]
    for vec in constructed:
        check_lefschetz_admissible(vec)
    for expr in expr_corpus:
        check_lefschetz_admissible(betti(expr))
    base = (1, 0, 1, 0, 1)
    for j in (0, 1, 3, 4):  # +1 at any of these breaks the duality pairing
        mutated = list(base)
        mutated[j] += 1
        with pytest.raises(AdmissibilityError):
            lyubeznik_table(BettiVector(2, tuple(mutated)))


@criterion(8, "cross-constructor coincidences")
def test_08_constructor_coincidences():
    pairs = [
        ("Hyp(3,2)", "P(1) x P(1)"),
        ("CI(2; 3)", "Curve(1)"),
        ("CI(3; 1)", "P(2)"),
        ("Gr(1,4)", "P(3)"),
    ]
    for left, right in pairs:
        assert betti(parse_variety(left)) == betti(parse_variety(right))


@criterion(9, "component-graph corner counts")
def test_09_component_graph_corner():
    edge = ComponentGraph(
        components=(("A", 2), ("B", 2)), intersections=(("A", "B", 1),)
    )
    no_edge = ComponentGraph(
        components=(("A", 2), ("B", 2)), intersections=(("A", "B", 0),)
    )
    sub_top = ComponentGraph(
        components=(("A", 2), ("B", 1)), intersections=(("A", "B", 1),)
    )
    assert corner_from_graph(edge) == 1
    assert corner_from_graph(no_edge) == 2
    assert corner_from_graph(sub_top) == 1
    unions = {
        1: "Curve(1)",
        2: "P(2) + P(2)",
        3: "Curve(2) + Curve(0) + Curve(1)",
        4: "Gr(2,4) + P(4) + P(4) + Hyp(5,2)",
    }
    for s, text in unions.items():
        table = lyubeznik_table(betti(parse_variety(text)))
        d = table.dim_a
        assert table[d, d] == s
        assert table[d, d] == 1 + table[0, 1]


@criterion(10, "byte-identical repeated JSON output")
def test_10_deterministic_json_output():
    argv = [
        sys.executable,
        "-m",
        "lyubeznik",
        "compute",
        "Gr(2,5)",
        "--format",
        "json",
    ]
    # The children import the package from this checkout, installed or not.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    first = subprocess.run(argv, capture_output=True, check=True, env=env)
    second = subprocess.run(argv, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    document = json.loads(first.stdout.decode())
    assert document["expr"] == "Gr(2,5)"
    assert document["verified"] is True
