"""Rules on the package's own source, checked on its syntax trees."""

import ast
from pathlib import Path

import pytest

_SOURCES = sorted((Path(__file__).parents[1] / "src" / "lyubeznik").glob("*.py"))

# Builtins that return an iterator with no length hint.
_UNSIZED = {"map", "filter", "zip", "enumerate"}


def _grows_in_steps(arg) -> bool:
    if isinstance(arg, ast.GeneratorExp):
        return True
    return (isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
            and arg.func.id in _UNSIZED)


@pytest.mark.parametrize("source", _SOURCES, ids=[p.name for p in _SOURCES])
def test_no_tuple_grown_from_an_unsized_iterator(source):
    """``tuple()`` of a generator or of a map, filter, zip or enumerate
    iterator cannot know the size, so it grows the tuple in steps.  On a
    loop of many calls that fragments the heap and raises peak RSS; a
    display such as ``(*[...],)`` or ``tuple([...])`` allocates the tuple
    once, at its size.  ``tuple(reversed(...))`` and ``tuple`` of a list or
    a name stay allowed."""
    offenders = [
        f"{source.name}:{node.lineno}"
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "tuple" and node.args and _grows_in_steps(node.args[0])]
    assert offenders == []
