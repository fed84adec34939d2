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


# The decorators of ``functools`` that keep results between calls.
_CACHES = {"cache", "lru_cache", "cached_property"}


@pytest.mark.parametrize("source", _SOURCES, ids=[p.name for p in _SOURCES])
def test_no_cache_outlives_a_call(source):
    """Each call shares equal atoms within itself only.  A ``functools``
    cache would hand one call's results to the next, so repeated calls
    would time a lookup, and it would keep every argument alive; neither
    an import of one from ``functools`` nor an attribute of that name may
    appear."""
    offenders = [
        f"{source.name}:{node.lineno}"
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if (isinstance(node, ast.ImportFrom) and node.module == "functools"
            and any(alias.name in _CACHES for alias in node.names))
        or (isinstance(node, ast.Attribute) and node.attr in _CACHES)]
    assert offenders == []


@pytest.mark.parametrize("source", _SOURCES, ids=[p.name for p in _SOURCES])
def test_values_set_slots_only_through_their_descriptors(source):
    """Every value stores each slot through that slot's own descriptor
    setter, bound once after its class.  ``object.__setattr__`` would be a
    second construction mechanism, which looks the name up through the
    class hierarchy on every call; it may not appear, called or not."""
    offenders = [
        f"{source.name}:{node.lineno}"
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"]
    assert offenders == []


# ``__init__.py`` imports the package's API, which it does not use itself.
_MODULES = [p for p in _SOURCES if p.name != "__init__.py"]


@pytest.mark.parametrize("source", _MODULES, ids=[p.name for p in _MODULES])
def test_every_import_is_used(source):
    """A module reads every name it imports; ``import a.b`` binds ``a``."""
    tree = ast.parse(source.read_text(encoding="utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]: node.lineno
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [f"{source.name}:{line} {name}" for name, line in imported.items()
            if name not in used] == []


def test_every_private_module_name_is_loaded():
    """Every module-level ``_private`` function, class or variable is read
    somewhere in the package, by name or as an attribute."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in _SOURCES}
    loaded = {node.id if isinstance(node, ast.Name) else node.attr
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))}
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                sides = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [leaf.id for side in sides for leaf in ast.walk(side)
                           if isinstance(leaf, ast.Name)]
            else:
                continue
            orphans += [f"{name}:{node.lineno} {target}" for target in targets
                        if target.startswith("_") and not target.startswith("__")
                        and target not in loaded]
    assert orphans == []


def _is_super_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "super")


def test_no_function_calls_itself():
    """No tree walk and no parser step recurses, so the depth of a tree or
    of a text's parentheses never meets the recursion limit.  A function
    may call no name and no attribute equal to its own name, except its
    parent class's method through ``super().<name>``."""
    offenders = [
        f"{source.name}:{node.lineno} {func.name}"
        for source in _SOURCES
        for func in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and ((isinstance(node.func, ast.Name) and node.func.id == func.name)
             or (isinstance(node.func, ast.Attribute) and node.func.attr == func.name
                 and not _is_super_call(node.func.value)))]
    assert offenders == []


def test_only_variety_reads_a_joins_operands():
    """The tree walks live in ``variety.py``: ``postorder``, ``render`` and
    ``fold``.  Every other module reads a tree through them, so no other
    module reads a join's ``.left`` or ``.right``."""
    offenders = [
        f"{source.name}:{node.lineno} {node.attr}"
        for source in _SOURCES if source.name != "variety.py"
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("left", "right")]
    assert offenders == []
