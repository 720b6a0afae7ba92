import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbeuler

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = ["rationals", "local", "germs", "pairs", "applications"]


@pytest.mark.parametrize("module", MODULES)
def test_package_publishes_each_module_interface(module):
    module = importlib.import_module(f"orbeuler.{module}")
    assert module.__all__
    for name in module.__all__:
        assert getattr(orbeuler, name) is getattr(module, name), name


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_loads_no_module():
    loaded = run_fresh(
        "import json, sys, orbeuler\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('orbeuler.'))))"
    )
    assert loaded == []


def test_lookup_is_cached_in_the_package_namespace():
    cached = run_fresh(
        "import json, orbeuler\n"
        "before = 'euler_local' in vars(orbeuler)\n"
        "value = orbeuler.euler_local\n"
        "import orbeuler.local\n"
        "print(json.dumps([before, vars(orbeuler)['euler_local'] is orbeuler.local.euler_local]))"
    )
    assert cached == [False, True]


@pytest.mark.parametrize("module", MODULES)
def test_submodule_resolves(module):
    assert getattr(orbeuler, module) is importlib.import_module(f"orbeuler.{module}")


def test_star_import_binds_every_public_name_and_module():
    names = [name for module in MODULES for name in importlib.import_module(f"orbeuler.{module}").__all__]
    assert len(names) == len(set(names)) == 57
    namespace = {}
    exec("from orbeuler import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names + MODULES)
    assert all(namespace[name] is getattr(orbeuler, name) for name in namespace)


def test_dir_lists_every_name_and_module():
    listed = dir(orbeuler)
    assert listed == sorted(listed)
    assert set(orbeuler.__all__) >= set(MODULES)
    assert set(orbeuler.__all__) | {"__version__"} <= set(listed)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        orbeuler.no_such_name
    assert not hasattr(orbeuler, "no_such_name")
    assert "no_such_name" not in vars(orbeuler)
