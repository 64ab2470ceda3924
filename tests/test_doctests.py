"""The docstring examples of every sswilf module run as part of the suite."""
import doctest
import importlib
import pkgutil

import pytest

import sswilf

MODULES = sorted(m.name for m in pkgutil.iter_modules(sswilf.__path__, "sswilf."))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
