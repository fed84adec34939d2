"""The benchmark's independent checker, as the tests' reference.

``bench/checker.py`` imports nothing from the program.  Its Betti vectors
come from closed forms that the program does not use, and its tables and
expression texts from the paper's formulas and its own renderer.  Bench
modules are loaded from their files, so that nothing is added to
``sys.path``.
"""

import importlib.util
from pathlib import Path

from lyubeznik import DisjointUnion, Product

_BENCH = Path(__file__).parents[1] / "bench"


def load_bench_module(name):
    """``bench/<name>.py``, loaded from its file as ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = load_bench_module("checker")


def checker_tree(expr):
    """``expr`` as a checker tree: an atom is its name and its fields, a
    join its kind and its two operands."""
    kind = type(expr)
    if kind is Product or kind is DisjointUnion:
        return ("x" if kind is Product else "+",
                [checker_tree(expr.left), checker_tree(expr.right)])
    return (expr.name, *[getattr(expr, f) for f in expr.fields])
