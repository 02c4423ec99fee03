"""The usage examples in the package docstrings, run as tests."""

import doctest
import importlib

import pytest

MODULES = ["exactpoly", "models", "classify", "atlas", "render", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    # import_module: the package rebinds the name ``classify`` to the
    # function of that name
    module = importlib.import_module(f"discatlas.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
