"""Embedding independence as a test oracle.

The Lyubeznik numbers of the cone over V depend on V alone, not on its
embedding, and so do its Betti numbers.  The expression language can name
one variety in several ways, so each pair below must give equal Betti
vectors, equal tables and byte-equal CSV documents (which print no
expression line).  Betti vectors are compared as well as tables: the
table never reads beta_r, so a mistake in the middle Betti number can
leave every table entry unchanged.
"""

import importlib
import io
from itertools import combinations, combinations_with_replacement
from math import prod

import pytest

from lyubeznik import (
    Abelian,
    CompleteIntersection,
    Hypersurface,
    betti,
    lyubeznik_table,
    parse_variety,
)
from lyubeznik.cli import cmd_compute


def _degrees(ds):
    return ",".join(map(str, ds))


def _abelian():
    pairs = [(" x ".join(["Ab(1)"] * g), f"Ab({g})") for g in range(1, 25)]
    pairs += [(f"Ab({g}) x Ab({h})", f"Ab({g + h})")
              for g in range(1, 13) for h in range(1, 13)]
    return pairs


def _elliptic():
    return list(combinations(["Ab(1)", "Curve(1)", "Hyp(2,3)", "CI(3; 2,2)"], 2))


def _degree_one_sections():
    pairs = [(f"Hyp({n},1)", f"P({n - 1})") for n in range(2, 41)]
    pairs += [(f"CI({n}; 1,{_degrees(ds)})", f"CI({n - 1}; {_degrees(ds)})")
              for c in range(1, 4)
              for ds in combinations_with_replacement(range(1, 5), c)
              for n in range(c + 2, c + 9)]
    return pairs


def _grassmannians():
    pairs = []
    for n in range(2, 41):
        pairs += [(f"Gr(1,{n})", f"Gr({n - 1},{n})"), (f"Gr(1,{n})", f"P({n - 1})")]
    pairs += [(f"Gr({k},{n})", f"Gr({n - k},{n})")
              for n in range(3, 13) for k in range(2, n // 2 + 1) if k * (n - k) <= 64]
    return pairs


def _quadrics():
    # Segre: a smooth quadric surface; Plücker: Gr(2,4) is a quadric in P^5.
    return [("Hyp(3,2)", "P(1) x P(1)"), ("Hyp(5,2)", "Gr(2,4)")]


def _plane_curves():
    return [(f"Hyp(2,{d})", f"Curve({(d - 1) * (d - 2) // 2})") for d in range(1, 31)]


def _complete_intersection_curves():
    # adjunction: 2g - 2 = (prod of degrees) * (sum of degrees - n - 1)
    pairs = []
    for n in range(2, 6):
        for ds in combinations_with_replacement(range(1, 6), n - 1):
            twice = prod(ds) * (sum(ds) - n - 1) + 2
            assert twice % 2 == 0 and twice >= 0, (n, ds)
            pairs.append((f"CI({n}; {_degrees(ds)})", f"Curve({twice // 2})"))
    return pairs


# Same-dimensional operands for a union, and factors to distribute over it.
_DIM_ONE = ["P(1)", "Curve(3)", "Ab(1)", "Hyp(2,4)", "CI(3; 2,3)"]
_DIM_TWO = ["P(2)", "Ab(2)", "Hyp(3,4)", "Gr(1,3)", "CI(4; 2,2)"]
_FACTORS = ["P(1)", "Curve(2)", "Gr(2,4)", "Ab(3)", "Hyp(4,3)"]


def _distributivity():
    pairs = []
    for operands in (_DIM_ONE, _DIM_TWO):
        for a in operands:
            for b in operands:
                for c in _FACTORS:
                    pairs.append((f"({a} + {b}) x {c}", f"{a} x {c} + {b} x {c}"))
                    pairs.append((f"{c} x ({a} + {b})", f"{c} x {a} + {c} x {b}"))
    return pairs


_FAMILIES = {family.__name__.lstrip("_"): family() for family in [
    _abelian, _elliptic, _degree_one_sections, _grassmannians, _quadrics,
    _plane_curves, _complete_intersection_curves, _distributivity]}


def _vector(text):
    return betti(parse_variety(text))


def _csv(text):
    out = io.StringIO()
    assert cmd_compute(text, "csv", out=out) == 0, text
    return out.getvalue()


@pytest.mark.parametrize("family", _FAMILIES)
def test_identities_give_equal_vectors_and_tables(family):
    for left, right in _FAMILIES[family]:
        left_vector, right_vector = _vector(left), _vector(right)
        assert left_vector == right_vector, (left, right)
        assert lyubeznik_table(left_vector) == lyubeznik_table(right_vector), (left, right)


@pytest.mark.parametrize("family", _FAMILIES)
def test_identities_give_byte_equal_csv_documents(family):
    for left, right in _FAMILIES[family]:
        assert _csv(left) == _csv(right), (left, right)


# --- the Baseline mutants -----------------------------------------------------

def _middle_plus(function, by, when=lambda *args: True):
    """``function`` with ``by`` added to the middle entry of its result
    wherever ``when`` holds for its arguments."""
    def mutant(*args):
        value = list(function(*args))
        if when(*args):
            value[len(value) // 2] += by
        return tuple(value)
    return mutant


def _atoms_plus(classes, by):
    def apply(module, monkeypatch):
        for cls in classes:
            monkeypatch.setitem(module._ATOM_BETTI, cls,
                                _middle_plus(module._ATOM_BETTI[cls], by))
    return apply


def _function_plus(name, by, when=lambda *args: True):
    def apply(module, monkeypatch):
        monkeypatch.setattr(module, name, _middle_plus(getattr(module, name), by, when))
    return apply


_MUTANTS = {
    "beta_r of Hyp and CI + 2": _atoms_plus((Hypersurface, CompleteIntersection), 2),
    "beta_g of Ab(g) + 2": _atoms_plus((Abelian,), 2),
    "middle of _partitions_in_box + 1": _function_plus("_partitions_in_box", 1),
    "middle of _convolve + 2": _function_plus("_convolve", 2),
    "middle of _product of 3+ factors + 2":
        _function_plus("_product", 2, lambda factors: len(factors) >= 3),
}


@pytest.mark.parametrize("mutant", _MUTANTS)
def test_each_baseline_mutant_breaks_an_identity(mutant, monkeypatch):
    # The package re-exports the function betti under the module's name, so
    # the module is reached through importlib.
    _MUTANTS[mutant](importlib.import_module("lyubeznik.betti"), monkeypatch)
    assert any(_vector(left) != _vector(right)
               for pairs in _FAMILIES.values() for left, right in pairs)
