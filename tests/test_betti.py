"""Betti vector engine, checked against independent oracles.

The Grassmannian path is checked against a brute-force partition
enumerator and the complete-intersection path against a symbolic series
expansion; neither oracle shares code with the engine.
"""

import importlib
import sys
from math import comb
from operator import add

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import variety_exprs
from corpus import corpus
from lyubeznik import (
    Abelian,
    AdmissibilityError,
    BettiVector,
    CompleteIntersection,
    Curve,
    DimensionMismatchError,
    DisjointUnion,
    Grassmannian,
    Hypersurface,
    Product,
    ProjSpace,
    betti,
    check_lefschetz_admissible,
    euler_char_ci,
    parse_variety,
    render,
)
from lyubeznik.cli import main
from lyubeznik.variety import Atom, _from_postorder, postorder

# The module itself: the package's ``betti`` attribute is the function.
betti_module = importlib.import_module("lyubeznik.betti")


# --- independent oracles ---------------------------------------------------

def partitions_brute(total, max_part, max_len):
    """Count partitions of ``total`` with parts <= max_part and at most
    max_len parts, by direct enumeration over nonincreasing part lists."""
    if total == 0:
        return 1
    if max_len == 0 or max_part == 0:
        return 0
    return sum(partitions_brute(total - p, p, max_len - 1)
               for p in range(1, min(max_part, total) + 1))


def chi_symbolic(n, degrees):
    """Euler characteristic via sympy's rational-function series."""
    h = sympy.symbols("h")
    f = (1 + h) ** (n + 1)
    for d in degrees:
        f = f / (1 + d * h)
    c = len(degrees)
    coeff = sympy.series(f, h, 0, n - c + 1).removeO().coeff(h, n - c)
    return int(sympy.prod(degrees) * coeff)


# --- projective space ------------------------------------------------------

def test_projective_space_vectors():
    assert betti(ProjSpace(1)).betti == (1, 0, 1)
    assert betti(ProjSpace(2)).betti == (1, 0, 1, 0, 1)
    assert betti(ProjSpace(3)).betti == (1, 0, 1, 0, 1, 0, 1)


def test_projective_space_rejects_dimension_zero():
    with pytest.raises(ValueError):
        betti(ProjSpace(0))


# --- Grassmannians ---------------------------------------------------------

def test_grassmannian_frozen_values():
    # frozen from the brute-force enumerator
    assert betti(Grassmannian(2, 4)).betti == (1, 0, 1, 0, 2, 0, 1, 0, 1)
    assert betti(Grassmannian(2, 5)).betti == (
        1, 0, 1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 1)
    assert betti(Grassmannian(1, 4)) == betti(ProjSpace(3))


def test_grassmannian_against_brute_force():
    for n in range(2, 8):
        for k in range(1, n):
            vec = betti(Grassmannian(k, n))
            assert vec.dim == k * (n - k)
            for j, b in enumerate(vec):
                expected = (partitions_brute(j // 2, n - k, k)
                            if j % 2 == 0 else 0)
                assert b == expected, (k, n, j)


def test_grassmannian_duality_in_k():
    for n in range(2, 9):
        for k in range(1, n):
            assert betti(Grassmannian(k, n)) == betti(Grassmannian(n - k, n))


def test_grassmannian_rejects_bad_arguments():
    with pytest.raises(ValueError):
        betti(Grassmannian(0, 3))
    with pytest.raises(ValueError):
        betti(Grassmannian(3, 3))


# --- curves and abelian varieties -------------------------------------------

def test_curve_vectors():
    assert betti(Curve(0)).betti == (1, 0, 1)
    assert betti(Curve(1)).betti == (1, 2, 1)
    assert betti(Curve(2)).betti == (1, 4, 1)
    with pytest.raises(ValueError):
        betti(Curve(-1))


def test_abelian_vectors():
    assert betti(Abelian(1)).betti == (1, 2, 1)
    assert betti(Abelian(2)).betti == (1, 4, 6, 4, 1)
    assert betti(Abelian(3)).betti == (1, 6, 15, 20, 15, 6, 1)
    with pytest.raises(ValueError):
        betti(Abelian(0))


def test_abelian_one_equals_genus_one_curve():
    assert betti(Abelian(1)) == betti(Curve(1))


# --- complete intersections -------------------------------------------------

def test_euler_char_frozen_values():
    assert euler_char_ci(Hypersurface(4, 5)) == -200
    assert euler_char_ci(CompleteIntersection(3, [2])) == 4
    assert euler_char_ci(CompleteIntersection(3, [4])) == 24


def test_euler_char_against_symbolic_series():
    cases = [(n, ds)
             for n in range(2, 8)
             for ds in [(1,), (2,), (3,), (4,), (5,)]] + [
        (4, (2, 2)), (5, (2, 3)), (6, (2, 2, 2)), (7, (3, 4)), (5, (1, 2))]
    for n, ds in cases:
        if n - len(ds) >= 1:
            assert euler_char_ci(CompleteIntersection(n, ds)) == chi_symbolic(n, ds), (n, ds)


def test_hypersurface_reads_as_one_degree_complete_intersection():
    for n in range(2, 8):
        for d in range(1, 6):
            hyp = Hypersurface(n, d)
            assert hyp.degrees == (d,)
            assert euler_char_ci(hyp) == euler_char_ci(CompleteIntersection(n, (d,)))
            # ``degrees`` is derived, not a field: the value is still (n, d).
            assert repr(hyp) == f"Hypersurface(n={n}, d={d})"


def test_euler_char_rejects_other_atoms():
    for expr in (ProjSpace(3), Curve(1), Product(Hypersurface(3, 2), ProjSpace(1))):
        with pytest.raises(TypeError):
            euler_char_ci(expr)


def test_complete_intersection_frozen_vectors():
    assert betti(CompleteIntersection(4, [5])).betti == (1, 0, 1, 204, 1, 0, 1)
    assert betti(CompleteIntersection(3, [4])).betti == (1, 0, 22, 0, 1)
    assert betti(CompleteIntersection(3, [2])).betti == (1, 0, 2, 0, 1)


def test_degree_one_sections_reduce_to_projective_space():
    for n in range(2, 7):
        assert betti(CompleteIntersection(n, [1])) == betti(ProjSpace(n - 1))


def test_known_coincidences():
    assert betti(parse_variety("Hyp(3,2)")) == betti(parse_variety("P(1) x P(1)"))
    assert betti(parse_variety("CI(2; 3)")) == betti(parse_variety("Curve(1)"))
    assert betti(parse_variety("CI(3; 1)")) == betti(parse_variety("P(2)"))
    assert betti(parse_variety("Gr(1,4)")) == betti(parse_variety("P(3)"))


def test_alternating_sum_equals_euler_characteristic():
    for n, ds in [(4, (5,)), (3, (2,)), (5, (2, 2)), (6, (2, 3)), (7, (2,))]:
        vec = betti(CompleteIntersection(n, ds))
        alternating = sum(b if j % 2 == 0 else -b for j, b in enumerate(vec))
        assert alternating == euler_char_ci(CompleteIntersection(n, ds))


def test_ci_precondition_violations():
    with pytest.raises(ValueError):
        euler_char_ci(CompleteIntersection(3, []))
    with pytest.raises(ValueError):
        euler_char_ci(CompleteIntersection(3, [0]))
    with pytest.raises(ValueError):
        euler_char_ci(CompleteIntersection(2, [2, 2]))
    with pytest.raises(ValueError):
        betti(CompleteIntersection(3, (2, 2, 2)))


# --- Kunneth at products and sums at disjoint unions -------------------------

def test_kunneth_frozen_convolutions():
    assert betti(Product(Curve(1), ProjSpace(1))).betti == (1, 2, 2, 2, 1)
    assert betti(Product(ProjSpace(1), ProjSpace(1))).betti == (1, 0, 2, 0, 1)


def test_kunneth_unit_is_identity():
    vec = betti(Abelian(2)).betti
    assert betti_module._convolve(vec, (1,)) == vec
    assert betti_module._convolve((1,), vec) == vec


def test_kunneth_dimension_adds():
    product = betti(Product(ProjSpace(2), Abelian(3)))
    assert product.dim == 5
    assert len(product) == 11


@settings(max_examples=60)
@given(variety_exprs(max_dim=5), variety_exprs(max_dim=5))
def test_kunneth_commutes(a, b):
    assert betti(Product(a, b)) == betti(Product(b, a))


@settings(max_examples=40)
@given(variety_exprs(max_dim=3), variety_exprs(max_dim=3), variety_exprs(max_dim=3))
def test_kunneth_associates(a, b, c):
    assert betti(Product(Product(a, b), c)) == betti(Product(a, Product(b, c)))


def convolve_naive(a, b):
    """The product of two coefficient lists, one double sum per entry."""
    return tuple(sum(a[p] * b[n - p] for p in range(len(a)) if 0 <= n - p < len(b))
                 for n in range(len(a) + len(b) - 1))


# Mostly small entries and many zeros, with the occasional huge one.
_coefficients = st.lists(
    st.one_of(st.just(0), st.integers(0, 9), st.integers(0, 2 ** 200)),
    min_size=1, max_size=40).map(tuple)


@settings(max_examples=300)
@given(_coefficients, _coefficients)
def test_convolve_commutes_and_matches_double_sum(a, b):
    expected = convolve_naive(a, b)
    assert betti_module._convolve(a, b) == expected
    assert betti_module._convolve(b, a) == expected


# --- the packed product against the convolution fold --------------------------

_NINES = "9" * 2000
# The slot width of the product bound: 2^253 + 1 and 2 multiply to a
# 255-bit bound, the widest that fits 32 bytes; 2^254 + 1 to a 256-bit one.
_CAP = 8 * betti_module._MAX_SLOT_BYTES
_AT_CAP = [(2 ** (_CAP - 3), 1), (1, 1)]
_OVER_CAP = [(2 ** (_CAP - 2), 1), (1, 1)]
_factor_lists = st.lists(st.one_of(_coefficients, st.lists(
    st.one_of(st.just(0), st.integers(0, 3)), min_size=1, max_size=30).map(tuple)),
    min_size=1, max_size=6)


def _routes(monkeypatch):
    """Count calls of each route of ``_product``: ``_convolve`` steps, and
    the entries the packed route reads or writes with ``int.from_bytes``."""
    calls = {"direct": 0, "packed": 0}
    convolve, from_bytes = betti_module._convolve, betti_module._from_bytes

    def counting_convolve(a, b):
        calls["direct"] += 1
        return convolve(a, b)

    def counting_from_bytes(data, order):
        calls["packed"] += 1
        return from_bytes(data, order)

    monkeypatch.setattr(betti_module, "_convolve", counting_convolve)
    monkeypatch.setattr(betti_module, "_from_bytes", counting_from_bytes)
    return calls


def _fold(factors):
    value = factors[0]
    for factor in factors[1:]:
        value = betti_module._convolve(value, factor)
    return value


@pytest.mark.parametrize("pairs_per_entry", [betti_module._PACK_PAIRS_PER_ENTRY, -1])
def test_product_equals_convolve_fold(pairs_per_entry, monkeypatch):
    # -1 packs every list whose slot fits, so the packing arithmetic meets
    # every input, the one-entry factors whose coefficient equals the
    # bound included.
    @settings(max_examples=300)
    @given(_factor_lists)
    @example([(1,) * 20, (1,) * 20])                 # dense: packed
    @example([(1, 0, 0, 0, 1), (1, 0, 1)])          # sparse: direct
    @example([(1, 0, 0, 2, 0, 0, 0, 0, 1)])         # one factor
    @example([(0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 7), (1, 0, 0, 0, 0, 0, 0, 0, 3)] * 3)
    @example([(16,), (16,)])                        # bound 256 = 2^8 in one entry
    @example([(1, 1)] * 8 + [(1,) * 40])            # bound 2^8 * 40
    @example(_AT_CAP)
    @example(_OVER_CAP)
    def check(factors):
        assert betti_module._product(list(factors)) == _fold(factors)

    monkeypatch.setattr(betti_module, "_PACK_PAIRS_PER_ENTRY", pairs_per_entry)
    assert betti_module._slot_bytes(_AT_CAP) == betti_module._MAX_SLOT_BYTES
    assert betti_module._slot_bytes(_OVER_CAP) == betti_module._MAX_SLOT_BYTES + 1
    assert betti_module._slot_bytes([(16,), (16,)]) == 2
    calls = _routes(monkeypatch)
    check()
    assert calls["direct"] > 0 and calls["packed"] > 0


def test_product_leaves_huge_literals_to_convolve(monkeypatch, capsys):
    # One huge middle entry widens every slot of the packed integer; the
    # convolution multiplies it only where its pairs are nonzero.
    calls = _routes(monkeypatch)
    for text in (f"CI(33; {_NINES}) x Ab(32)", f"Gr(8,16) x Curve({_NINES})"):
        calls.update(direct=0, packed=0)
        betti(parse_variety(text))
        assert calls == {"direct": 1, "packed": 0}, text
    assert main(["betti", f"CI(33; {_NINES}) x Ab(32)", "--max-dim", "200"]) == 1
    assert capsys.readouterr() == (
        "", "error: a Betti number has more than 4300 digits, the printable bound\n")
    assert main(["betti", f"Gr(8,16) x Curve({_NINES})", "--max-dim", "200",
                 "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("j,beta\n0,1\n1,")


def test_packing_bug_cannot_pass_as_verified(monkeypatch, capsys):
    # With a slot one byte too narrow the largest coefficients carry into
    # their neighbours; the duality check of the table sees the product.
    chain = " x ".join(["Curve(2)"] * 64)
    factors = [betti(Curve(2)).betti] * 64
    width = betti_module._slot_bytes(factors)
    assert max(betti(parse_variety(chain)).betti).bit_length() > 8 * (width - 1)
    slot_bytes = betti_module._slot_bytes
    monkeypatch.setattr(betti_module, "_slot_bytes", lambda f: slot_bytes(f) - 1)
    assert main(["compute", chain, "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(("internal consistency failure: ",
                           "internal error: OverflowError: "))


def test_product_chain_is_multiplied_once(monkeypatch):
    # Each maximal run of products is one frame, multiplied out once when
    # its last operand is done, whatever the nesting of its joins; a union
    # operand is summed first and enters as one factor.
    lists = []
    product = betti_module._product

    def recording(factors):
        lists.append(len(factors))
        return product(factors)

    monkeypatch.setattr(betti_module, "_product", recording)
    for text, expected in (
            ("P(1) x (Curve(1) x (Ab(2) x P(3)))", [4]),
            ("(P(1) x Curve(1)) x (Ab(2) x P(3))", [4]),
            ("P(2) x P(1) + Curve(1) x (P(1) x P(1)) + Ab(3)", [2, 3]),
            ("P(3) + Ab(1) x (P(2) + Curve(1) x P(1))", [2, 2]),
            ("P(3) + Ab(3)", []),
            ("(P(1) + Curve(0)) x Ab(1) x (P(1) + P(1))", [3]),
            ("P(1) x (P(1) + (Curve(0) + P(1)))", [2])):
        lists.clear()
        betti(parse_variety(text))
        assert lists == expected, text


def test_product_chain_factors_keep_their_order(monkeypatch):
    # ``_product`` gets the operands of a product chain left to right,
    # however the chain nests; a union operand enters as its sum.
    vec = {text: betti(parse_variety(text)).betti
           for text in ("P(1)", "Curve(1)", "Ab(2)", "P(3)", "P(1) + Curve(2)")}
    lists = []
    product = betti_module._product
    monkeypatch.setattr(betti_module, "_product",
                        lambda factors: lists.append(list(factors)) or product(factors))
    in_order = [vec["P(1)"], vec["Curve(1)"], vec["Ab(2)"], vec["P(3)"]]
    with_union = [vec["Ab(2)"], vec["P(1) + Curve(2)"], vec["P(3)"]]
    for text, expected in (
            ("P(1) x Curve(1) x Ab(2) x P(3)", [in_order]),
            ("P(1) x (Curve(1) x (Ab(2) x P(3)))", [in_order]),
            ("(P(1) x Curve(1)) x (Ab(2) x P(3))", [in_order]),
            ("P(1) x (Curve(1) x Ab(2)) x P(3)", [in_order]),
            ("Ab(2) x (P(1) + Curve(2)) x P(3)", [with_union]),
            ("Ab(2) x ((P(1) + Curve(2)) x P(3))", [with_union]),
            ("Ab(2) x P(3) + Ab(2) x P(3)", [[vec["Ab(2)"], vec["P(3)"]]] * 2)):
        lists.clear()
        betti(parse_variety(text))
        assert lists == expected, text


def test_disjoint_union_sums():
    assert betti(DisjointUnion(ProjSpace(1), ProjSpace(1))).betti == (2, 0, 2)
    assert betti(DisjointUnion(Curve(1), ProjSpace(1))).betti == (2, 2, 2)


def test_disjoint_union_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        DisjointUnion(ProjSpace(1), ProjSpace(2))


# --- admissibility ----------------------------------------------------------

def test_admissibility_examples():
    assert check_lefschetz_admissible(BettiVector(2, (1, 0, 2, 0, 1))) is None
    for vec, pair, reason in [
            (BettiVector(2, (1, 0, 0, 0, 1)), (0, 2),
             "hard Lefschetz fails: beta_0 = 1 > beta_2 = 0"),
            (BettiVector(2, (1, 0, 2, 0, 2)), (0, 4),
             "duality fails: beta_0 = 1 != beta_4 = 2"),
            (BettiVector(1, (0, 0, 0)), (0, 0), "beta_0 = 0 must be positive")]:
        with pytest.raises(AdmissibilityError) as info:
            check_lefschetz_admissible(vec)
        assert info.value.pair == pair and str(info.value) == reason


def test_corpus_vectors_are_admissible(expr_corpus):
    for expr in expr_corpus:
        check_lefschetz_admissible(betti(expr))


@settings(max_examples=150)
@given(variety_exprs())
def test_every_expression_vector_is_admissible(expr):
    vec = betti(expr)
    assert vec.dim >= 1
    check_lefschetz_admissible(vec)


# --- BettiVector shape validation --------------------------------------------

def test_betti_vector_validation():
    with pytest.raises(ValueError):
        BettiVector(1, (1, 2))          # wrong length
    with pytest.raises(ValueError):
        BettiVector(1, (1, -2, 1))      # negative entry
    with pytest.raises(ValueError):
        BettiVector(-1, ())             # negative dimension
    with pytest.raises(ValueError):
        BettiVector(1, (1, 2.5, 1))     # non-integer entry
    with pytest.raises(ValueError):
        BettiVector(1.0, (1, 2, 1))     # non-integer dimension
    with pytest.raises(ValueError):
        BettiVector(True, (1, 2, 1))    # bool dimension
    with pytest.raises(ValueError):
        BettiVector(1, (True, 2, True))  # bool entries


def test_betti_vector_str():
    assert str(BettiVector(1, (1, 2, 1))) == "(1, 2, 1)"


# --- the walk against a fold of the post-order, two values at a time ----------

def _reference_atom(atom):
    """Each atom's vector as the per-atom constructors built it before the
    walk ran on tuples."""
    r = atom.dim
    if isinstance(atom, ProjSpace):
        return [1 if j % 2 == 0 else 0 for j in range(2 * r + 1)]
    if isinstance(atom, Grassmannian):
        vec = [0] * (2 * r + 1)
        for i, c in enumerate(betti_module._partitions_in_box(atom.k, atom.n - atom.k)):
            vec[2 * i] = c
        return vec
    if isinstance(atom, Curve):
        return [1, 2 * atom.g, 1]
    if isinstance(atom, Abelian):
        return [comb(2 * atom.g, j) for j in range(2 * atom.g + 1)]
    chi = euler_char_ci(atom)
    vec = [1 if j % 2 == 0 else 0 for j in range(2 * r + 1)]
    vec[r] = 0
    off_middle = sum(b if j % 2 == 0 else -b for j, b in enumerate(vec))
    vec[r] = chi - off_middle if r % 2 == 0 else -(chi - off_middle)
    return vec


def _reference_betti(expr):
    """The tree's post-order folded two values at a time: the nested
    convolution loop at each product and ``map(add)`` at each union, with
    neither ``_product`` nor packing, and no recursion at any depth."""
    values = []
    for item in postorder(expr):
        if item is Product or item is DisjointUnion:
            b = values.pop()
            a = values.pop()
            if item is DisjointUnion:
                values.append(list(map(add, a, b)))
                continue
            out = [0] * (len(a) + len(b) - 1)
            for p, ap in enumerate(a):
                for q, bq in enumerate(b):
                    out[p + q] += ap * bq
            values.append(out)
        else:
            values.append(_reference_atom(item))
    return values[0]


def _assert_walks_agree(expr):
    vec = betti(expr)
    assert vec.dim == expr.dim
    assert list(vec.betti) == _reference_betti(expr), str(expr)


def test_tuple_walk_matches_reference_on_corpus(expr_corpus):
    for expr in expr_corpus:
        _assert_walks_agree(expr)


def test_tuple_walk_matches_reference_in_dimension_64():
    for expr in corpus(seed=64, size=1500, max_dim=64):
        _assert_walks_agree(expr)


@settings(max_examples=100)
@given(variety_exprs(max_dim=12))
def test_tuple_walk_matches_reference_on_random_trees(expr):
    _assert_walks_agree(expr)


@pytest.mark.parametrize("text", [
    "CI(33; {nines2000}) x Ab(32)",
    "Ab(32) x CI(33; {nines2000})",
    "Gr(8,16) + CI(65; {nines1000})",
    "CI(5; {nines2000}) x P(1) x P(1) x Curve(7)",
    "Hyp(3,{nines2000}) + P(1) x Curve(2) + CI(4; 2,{nines1000})",
])
def test_tuple_walk_matches_reference_with_huge_literals(text):
    _assert_walks_agree(parse_variety(
        text.format(nines2000="9" * 2000, nines1000="9" * 1000)))


def test_every_atom_has_exactly_one_betti_entry():
    assert set(betti_module._ATOM_BETTI) == set(Atom.__subclasses__())


def test_betti_builds_one_vector_per_call(monkeypatch):
    built = []

    class CountingVector(BettiVector):
        __slots__ = ()

        def __init__(self, dim, values):
            built.append(dim)
            super().__init__(dim, values)

    monkeypatch.setattr(betti_module, "BettiVector", CountingVector)
    atoms = ["P(1)", "Curve(3)", "Ab(1)", "Hyp(2,3)", "CI(3; 2,2)", "Gr(1,2)"]
    union_chain = " + ".join(atoms[i % len(atoms)] for i in range(300))
    product_chain = " x ".join(atoms[i % len(atoms)] for i in range(64))
    for text, dim in ((union_chain, 1), (product_chain, 64)):
        built.clear()
        vec = betti(parse_variety(text))
        assert built == [dim] and type(vec) is CountingVector


def test_betti_builds_no_atom(monkeypatch):
    # The walk reads each parsed atom's validated fields, so each atom is
    # checked once, by its own constructor when the tree is built.
    trees = [parse_variety(text) for text in (
        "Hyp(4,5)", "CI(5; 2,2)", "Hyp(3,2) x CI(6; 2,3) + Gr(2,4) x P(2)",
        " + ".join(["Hyp(3,4)", "CI(4; 2,2)", "Curve(1) x P(1)"] * 50))]
    built = []
    for cls in Atom.__subclasses__():
        def counting(self, *args, _init=cls.__init__):
            built.append(type(self).__name__)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    for tree in trees:
        betti(tree)
    assert built == []
    Hypersurface(2, 3)
    assert built == ["Hypersurface"]


# --- shared atoms against a tree of distinct atom objects -------------------

def _unshared(expr):
    """An equal tree in which every atom is its own object.  ``deepcopy``
    would keep the sharing, so each atom is built again from its fields."""
    return _from_postorder([item if isinstance(item, type) else type(item)(*item._key())
                            for item in postorder(expr)])


def _long_chains():
    dim2 = ["P(2)", "Ab(2)", "Hyp(3,4)", "CI(4; 2,2)", "CI(5; 2,3,3)", "Gr(1,3)"]
    dim1 = ["P(1)", "Curve(2)", "Hyp(2,3)", "CI(3; 2,2)", "Ab(1)"]
    unions = [dim2[i % len(dim2)] for i in range(300)]
    factors = [dim1[i % len(dim1)] for i in range(64)]

    def right_nested(op, items):
        head = "".join([f"{item} {op} (" for item in items[:-2]])
        return f"{head}{items[-2]} {op} {items[-1]}" + ")" * (len(items) - 2)

    return [" + ".join(unions), " x ".join(factors), right_nested("+", unions[:150]),
            right_nested("x", factors), " + ".join([" x ".join(factors[:8])] * 40)]


def _mixed_shapes():
    """API-built trees whose runs of one join kind nest in each other."""
    u1 = DisjointUnion(ProjSpace(1), Curve(2))
    u2 = DisjointUnion(DisjointUnion(Curve(1), Abelian(1)), ProjSpace(1))
    u3 = DisjointUnion(Hypersurface(3, 4), DisjointUnion(Abelian(2), ProjSpace(2)))
    shared = Product(DisjointUnion(u1, Curve(3)), Product(u2, Abelian(1)))
    return [
        DisjointUnion(DisjointUnion(Product(u1, u2), Product(Curve(4), u1)),
                      Product(u2, DisjointUnion(ProjSpace(1), u1))),
        Product(u1, Product(u3, Product(u2, Product(u3, u1)))),
        DisjointUnion(shared, shared),
        DisjointUnion(u3, u3),
    ]


def test_walk_matches_reference_fold():
    # The frames of the walk against the binary fold of the post-order, on
    # every shape the corpus, the long chains and the API build.
    trees = corpus() + corpus(max_dim=64)
    trees += [parse_variety(render(tree)) for tree in trees]
    chains = [parse_variety(text) for text in _long_chains()]
    trees += chains + [_unshared(chain) for chain in chains] + _mixed_shapes()
    for tree in trees:
        _assert_walks_agree(tree)


def test_deep_alternating_tree_needs_no_recursion():
    # T_{k+1} = (T_k x P(1)) + P(k+2): the join kind changes at every level,
    # so the walk opens a frame per level, past the recursion limit.
    depth = sys.getrecursionlimit() + 1
    tree = ProjSpace(1)
    for k in range(depth):
        tree = DisjointUnion(Product(tree, ProjSpace(1)), ProjSpace(k + 2))
    assert tree.dim == depth + 1
    _assert_walks_agree(tree)


def test_shared_atoms_match_distinct_atoms(monkeypatch):
    # The walk expands each atom object once and render writes it once:
    # a parsed tree, whose equal atoms are one object, gives the vector and
    # the text of an equal tree whose atoms are all distinct, and calls
    # euler_char_ci once per distinct Hyp or CI atom.
    calls = []
    monkeypatch.setattr(betti_module, "euler_char_ci",
                        lambda atom: calls.append(atom) or euler_char_ci(atom))
    texts = [render(e) for e in corpus() + corpus(max_dim=64)] + _long_chains()
    written = expanded = 0
    for text in texts:
        shared = parse_variety(text)
        unshared = _unshared(shared)
        atoms = [item for item in postorder(unshared) if not isinstance(item, type)]
        assert len({id(atom) for atom in atoms}) == len(atoms)
        complete = [atom for atom in atoms
                    if isinstance(atom, (Hypersurface, CompleteIntersection))]
        calls.clear()
        vec = betti(shared)
        assert len(calls) == len(set(complete)), text
        expanded += len(calls)
        calls.clear()
        assert betti(unshared) == vec, text
        assert len(calls) == len(complete), text
        written += len(calls)
        assert render(shared) == render(unshared) == text
    assert expanded < written


@pytest.mark.parametrize("text, chi, err", [
    ("Hyp(4,5)", 5, "internal consistency failure: inadmissible complete "
     "intersection vector for n=4, degrees=(5,): middle Betti number beta_3 = -1\n"),
    ("Hyp(3,2)", 2, "internal consistency failure: inadmissible complete "
     "intersection vector for n=3, degrees=(2,): middle Betti number beta_2 = 0\n"),
])
def test_inadmissible_complete_intersection_exits_two(text, chi, err,
                                                      monkeypatch, capsys):
    # A wrong Euler characteristic forces a middle Betti number below the
    # hard Lefschetz bound, which every command reports as an internal failure.
    monkeypatch.setattr(betti_module, "euler_char_ci", lambda atom: chi)
    for command in ("betti", "compute", "oracle"):
        assert main([command, text]) == 2
        assert capsys.readouterr() == ("", err)
