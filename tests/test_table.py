"""Table construction: golden cases, structural invariants, rejection."""

import re

import pytest
from hypothesis import given, settings

from conftest import variety_exprs
from lyubeznik import (
    AdmissibilityError,
    BettiVector,
    ComponentGraph,
    LyubeznikTable,
    ProjSpace,
    betti,
    corner_from_graph,
    lyubeznik_table,
)


def test_projective_plane_golden():
    table = lyubeznik_table(BettiVector(2, (1, 0, 1, 0, 1)))
    assert table.dim_a == 3
    assert table.nonzero() == ((3, 3, 1),)


def test_elliptic_curve_times_line_golden():
    table = lyubeznik_table(BettiVector(2, (1, 2, 2, 2, 1)))
    assert table.nonzero() == ((0, 2, 2), (2, 3, 2), (3, 3, 1))


def test_genus_two_curve_golden():
    table = lyubeznik_table(BettiVector(1, (1, 4, 1)))
    assert table.nonzero() == ((2, 2, 1),)


def test_projective_spaces_have_one_nonzero_entry():
    for n in range(1, 9):
        table = lyubeznik_table(betti(ProjSpace(n)))
        assert table.nonzero() == ((n + 1, n + 1, 1),)


def test_corner_counts_components():
    vec = BettiVector(2, (3, 0, 3, 0, 3))  # three disjoint planes
    table = lyubeznik_table(vec)
    assert table[3, 3] == 3
    assert table[0, 1] == 2


@settings(max_examples=150)
@given(variety_exprs())
def test_first_entries_vanish(expr):
    table = lyubeznik_table(betti(expr))
    d = table.dim_a
    assert table[0, 0] == 0
    assert table[0, d] == 0
    assert table[1, d] == 0


@settings(max_examples=150)
@given(variety_exprs())
def test_zero_region(expr):
    table = lyubeznik_table(betti(expr))
    d = table.dim_a
    for i in range(1, d + 1):
        for j in range(d):
            assert table[i, j] == 0


@settings(max_examples=150)
@given(variety_exprs())
def test_column_mirrors_first_row(expr):
    table = lyubeznik_table(betti(expr))
    d = table.dim_a
    for ell in range(2, d):
        assert table[ell, d] == table[0, d + 1 - ell]


@settings(max_examples=150)
@given(variety_exprs())
def test_telescoping_sums(expr):
    vec = betti(expr)
    table = lyubeznik_table(vec)
    r = vec.dim
    for k in range(1, r // 2 + 1):  # even column indices 2t <= r
        total = sum(table[0, 2 * t] for t in range(1, k + 1))
        assert total == vec[2 * k - 1]
    for k in range((r + 1) // 2):  # odd column indices 2t+1 <= r
        total = sum(table[0, 2 * t + 1] for t in range(k + 1))
        assert total == vec[2 * k] - 1


@settings(max_examples=150)
@given(variety_exprs())
def test_corner_equals_component_count(expr):
    vec = betti(expr)
    table = lyubeznik_table(vec)
    assert table[vec.dim + 1, vec.dim + 1] == vec[0]
    assert table[vec.dim + 1, vec.dim + 1] == 1 + table[0, 1]


def test_inadmissible_vectors_rejected():
    with pytest.raises(AdmissibilityError):
        lyubeznik_table(BettiVector(2, (1, 0, 0, 0, 1)))
    with pytest.raises(AdmissibilityError):
        lyubeznik_table(BettiVector(2, (1, 0, 2, 0, 2)))
    with pytest.raises(AdmissibilityError):
        lyubeznik_table(BettiVector(1, (0, 0, 0)))


def test_duality_breaking_mutations_rejected():
    base = (1, 0, 1, 0, 1)
    for j in range(5):
        mutated = list(base)
        mutated[j] += 1
        vec = BettiVector(2, tuple(mutated))
        if j == 2:  # the middle entry has no duality partner; (1,0,2,0,1) is fine
            assert lyubeznik_table(vec).nonzero() == ((3, 3, 1),)
        else:
            with pytest.raises(AdmissibilityError):
                lyubeznik_table(vec)


def test_dimension_zero_rejected():
    with pytest.raises(ValueError):
        lyubeznik_table(BettiVector(0, (1,)))


def test_indexing_outside_the_stored_range():
    table = lyubeznik_table(BettiVector(2, (1, 0, 1, 0, 1)))
    assert table[10, 10] == 0
    assert table[0, 99] == 0
    with pytest.raises(IndexError):
        table[-1, 0]
    # Only plain ints index the table: a float or a bool is refused, not
    # truncated, read as zero or read as 0 or 1.
    for key in ((1.5, 0), (True, 3), (2.0, 3), (0, False), (3, 3.0)):
        with pytest.raises(TypeError):
            table[key]
    # A key that is not a pair is refused by name, not unpacked.
    for key in ((1, 2, 3), (1,), 5, (), [1, 2]):
        with pytest.raises(TypeError, match=r"a table index is a pair \(i, j\), got "
                           + re.escape(repr(key))):
            table[key]


def assert_table_invariants(table):
    """The shape the theorem forces, read entry by entry through table[i, j]:
    nothing below the first row except the last column, that column mirrors
    the first row, lambda_{0,0} = lambda_{0,d} = lambda_{1,d} = 0, and the
    corner is positive.  Indices above d read as zero."""
    d = table.dim_a
    for i in range(d + 2):
        for j in range(d + 2):
            v = table[i, j]
            assert isinstance(v, int) and v >= 0, (i, j, v)
            if i > d or j > d or (i > 0 and j < d):
                assert v == 0, (i, j, v)
    assert table[0, 0] == table[0, d] == table[1, d] == 0
    for ell in range(2, d):
        assert table[ell, d] == table[0, d + 1 - ell], ell
    assert table[d, d] >= 1


class _DenseTable:
    """A table read from a full grid, to show the checker rejects bad grids."""

    def __init__(self, rows):
        self.dim_a = len(rows) - 1
        self.rows = rows

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j] if i <= self.dim_a and j <= self.dim_a else 0


def test_table_shape_validation(expr_corpus):
    with pytest.raises(ValueError):
        LyubeznikTable(1, (0, 0), 1)  # cone dimension too small
    with pytest.raises(ValueError):
        LyubeznikTable(3, (0, 0, 2), 1)  # wrong first-row length
    with pytest.raises(ValueError):
        LyubeznikTable(3, (1, 0, 2, 0), 1)  # lambda_(0,0) must vanish
    with pytest.raises(ValueError):
        LyubeznikTable(3, (0, 0, 2, 1), 1)  # lambda_(0,d) must vanish
    with pytest.raises(ValueError):
        LyubeznikTable(3, (0, 0, 2, 0), 0)  # the corner counts components
    with pytest.raises(ValueError):
        LyubeznikTable(2, (0, -5, 0), 1)  # negative entry
    with pytest.raises(ValueError):
        LyubeznikTable(2, (0, 1.0, 0), 1)  # non-integer entry
    with pytest.raises(ValueError):
        LyubeznikTable(2, (0, True, 0), 1)  # bool entry
    with pytest.raises(ValueError):
        LyubeznikTable(2, (0, 1, 0), True)  # bool corner
    with pytest.raises(ValueError):
        LyubeznikTable(2, (0, 1, 0), 1.0)  # non-integer corner
    with pytest.raises(ValueError):
        LyubeznikTable(2.5, (0, 1, 0), 1)  # non-integer dimension
    with pytest.raises(ValueError):
        LyubeznikTable(2.0, (0, 1, 0), 1)  # float dimension
    good = LyubeznikTable(3, (0, 0, 2, 0), 1)
    assert good.nonzero() == ((0, 2, 2), (2, 3, 2), (3, 3, 1))
    assert_table_invariants(good)
    for expr in expr_corpus:
        assert_table_invariants(lyubeznik_table(betti(expr)))
    assert_table_invariants(_DenseTable(
        ((0, 0, 2, 0), (0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 1))))
    bad_zero_region = ((0, 0, 2, 0), (0, 1, 0, 0), (0, 0, 0, 2), (0, 0, 0, 1))
    bad_mirror = ((0, 0, 2, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1))
    bad_corner = ((0, 0, 2, 0), (0, 0, 0, 0), (0, 0, 0, 2), (0, 0, 0, 0))
    for rows in (bad_zero_region, bad_mirror, bad_corner):
        with pytest.raises(AssertionError):
            assert_table_invariants(_DenseTable(rows))


def test_corner_from_graph_examples():
    one = ComponentGraph((("A", 2),))
    assert corner_from_graph(one) == 1
    meeting = ComponentGraph((("A", 2), ("B", 2)), (("A", "B", 1),))
    assert corner_from_graph(meeting) == 1
    disjoint = ComponentGraph((("A", 2), ("B", 2)), (("A", "B", -1),))
    assert corner_from_graph(disjoint) == 2
