"""Run the usage examples embedded in the library docstrings and the README."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import lyubeznik

# Every module of the package except the entry point __main__.
_MODULE_NAMES = sorted(f"lyubeznik.{info.name}"
                       for info in pkgutil.iter_modules(lyubeznik.__path__)
                       if info.name != "__main__")


@pytest.mark.parametrize("name", _MODULE_NAMES)
def test_module_doctests(name):
    # importlib sidesteps the package re-exports, which shadow some
    # submodule attributes (lyubeznik.betti is the function).
    module = importlib.import_module(name)
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0


def test_readme_examples():
    readme = Path(__file__).parents[1] / "README.md"
    failures, tries = doctest.testfile(str(readme), module_relative=False)
    assert tries > 0 and failures == 0
