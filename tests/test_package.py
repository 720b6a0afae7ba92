import importlib

import pytest

import orbeuler

MODULES = ["rationals", "local", "germs", "pairs", "applications"]


@pytest.mark.parametrize("module", MODULES)
def test_package_publishes_each_module_interface(module):
    module = importlib.import_module(f"orbeuler.{module}")
    assert module.__all__
    for name in module.__all__:
        assert getattr(orbeuler, name) is getattr(module, name), name
