"""Every name that the package or one of its modules exports resolves."""

import importlib

import pytest

MODULES = ("funcseries", "funcseries.exact", "funcseries.pseries", "funcseries.bell",
           "funcseries.catalog", "funcseries.approx", "funcseries.cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)
