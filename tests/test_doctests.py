"""The examples in the package's docstrings run and give the output they show."""

import doctest
import importlib
import pkgutil

import pytest

import bidfair

MODULES = sorted(info.name for info in pkgutil.walk_packages(bidfair.__path__, "bidfair."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
