"""What a CLI process imports, and what ``--jobs`` prints.

Each case runs in a fresh interpreter, as ``python -m orbeuler`` would, and
reads back ``sys.modules``: a subcommand must not load the modules that it
does not run, nor ``multiprocessing`` at any ``--jobs``, nor the slow stdlib
modules in ``SLOW``, nor ``decimal``.  The probes run under ``python -S``, so
that no ``site`` hook can load a module before the CLI does and hide it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbeuler import pair_to_dict

from fixtures import quadrilateral_pair

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``python -m orbeuler <argv>`` under runpy, then prints the exit code
# and the package, concurrent.futures, multiprocessing, SLOW and LAZY modules
# loaded.
PROBE = """
import contextlib, io, json, runpy, sys
sys.argv = ["orbeuler", "--format", "machine", *json.loads(sys.argv[1])]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("orbeuler", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code
roots = ("orbeuler", "concurrent", "multiprocessing", "dataclasses", "inspect", "typing", "decimal")
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] in roots)]))
"""

# --jobs forks workers itself and loads no process pool.
POOL = ("concurrent", "multiprocessing")
# Library records are built without dataclasses, which imports inspect; each
# costs a process about 10 ms.  The library takes its abstract types from
# collections.abc, not typing, which costs about 4 ms.
SLOW = ("dataclasses", "inspect", "typing")
# Only a decimal annotation beyond float range needs decimal.  On Python 3.10
# to 3.13 fractions, which every subcommand imports, loads it itself; then it
# is not the CLI's doing either.
LAZY = ("decimal",)
# Only a batch that forks workers loads the fork machinery.
FORK = ["orbeuler._fork"]
APPLICATIONS_ONLY = ["orbeuler.local", "orbeuler.pairs", "orbeuler.germs", *FORK]
LOCAL_DOCS = json.dumps(
    [
        {"type": "ordinary", "coeffs": ["1/2", "1/2", "1/2"]},
        {"type": "cyclic", "n": 5, "q": 2, "d1": "1/2", "d2": "1/3"},
        {"type": "star", "b": 2, "arms": [[2, 1, "1/2"], [3, 1, 0], [5, 1, "1/3"]]},
        {"type": "germ_mu_tau", "mu": 4, "tau": 3},
    ]
)
GERMS = json.dumps(["x^2+y^3", "x^3+y^5", "x^2y+y^4", "x^2+y^9"])
PAIR = json.dumps(pair_to_dict(quadrilateral_pair()))
BUDGET = {"c1_sq": 9, "c2": 3, "alpha": "1/2", "k_dot_c": -18, "c_sq": 36, "points": [[2, "1/24"]]}


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def loaded_anyway():
    """The SLOW modules that a bare interpreter has already loaded, and the
    LAZY ones that it loads on importing fractions."""
    probe = (
        f"import json, sys; slow = [m for m in {SLOW!r} if m in sys.modules]; import fractions; "
        f"print(json.dumps(slow + [m for m in {LAZY!r} if m in sys.modules]))"
    )
    return json.loads(python("-S", "-c", probe))


def loaded_by(argv):
    code, modules = json.loads(python("-S", "-c", PROBE, json.dumps(argv)))
    assert code == 0
    return modules


def loads_any(modules, roots):
    return [m for m in modules if m in roots or m.startswith(tuple(f"{r}." for r in roots))]


@pytest.mark.parametrize(
    "argv, absent",
    [
        pytest.param(["cusps", "--degree", "6", "--alpha", "1/2"], APPLICATIONS_ONLY, id="cusps"),
        pytest.param(["cusps", "--optimize", "--grid", "600"], APPLICATIONS_ONLY, id="cusps-optimize"),
        pytest.param(["arrangement", "--k", "6", "--t", "2:3,3:4"], APPLICATIONS_ONLY, id="arrangement"),
        pytest.param(["bound", "--c1-sq", "9", "--c2", "3", "--genus", "2"], APPLICATIONS_ONLY, id="bound"),
        pytest.param(["check", json.dumps(BUDGET)], APPLICATIONS_ONLY, id="check"),
        pytest.param(["local", LOCAL_DOCS], ["orbeuler.pairs", "orbeuler.germs", "orbeuler.applications", *FORK], id="local"),
        pytest.param(["global", PAIR], ["orbeuler.germs", "orbeuler.applications", *FORK], id="global"),
        pytest.param(["germ", GERMS], ["orbeuler.pairs", "orbeuler.applications", *FORK], id="germ"),
        pytest.param(
            ["local", LOCAL_DOCS, "--jobs", "2"],
            ["orbeuler.pairs", "orbeuler.germs", "orbeuler.applications"],
            id="local-batch-jobs-2",
        ),
        pytest.param(["germ", GERMS, "--jobs", "2"], ["orbeuler.pairs", "orbeuler.applications"], id="germ-batch-jobs-2"),
        pytest.param(
            ["local", "--ordinary", "1/2", "--jobs", "2"],
            ["orbeuler.pairs", "orbeuler.germs", "orbeuler.applications", *FORK],
            id="local-one-jobs-2",
        ),
        pytest.param(["germ", "x^2+y^3", "--jobs", "2"], ["orbeuler.pairs", "orbeuler.applications", *FORK], id="germ-one-jobs-2"),
        pytest.param(["germ", GERMS, "--jobs", "1"], ["orbeuler.pairs", "orbeuler.applications", *FORK], id="germ-batch-jobs-1"),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, absent, loaded_anyway):
    modules = loaded_by(argv)
    assert {"orbeuler", "orbeuler.cli", "orbeuler.rationals"} <= set(modules)
    avoidable = [m for m in (*SLOW, *LAZY) if m not in loaded_anyway]
    assert loads_any(modules, [*absent, *POOL, *avoidable]) == []


@pytest.mark.parametrize("jobs", ["2", "3"])
@pytest.mark.parametrize("argv", [["germ", GERMS], ["local", LOCAL_DOCS]], ids=["germ", "local"])
def test_parallel_output_is_serial_output(jobs, argv):
    serial = python("-m", "orbeuler", "--format", "machine", *argv, "--jobs", "1")
    assert python("-m", "orbeuler", "--format", "machine", *argv, "--jobs", jobs) == serial
    assert json.loads(serial)["values"]["items"]
