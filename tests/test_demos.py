import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from orbeuler import pair_to_dict

from fixtures import quadrilateral_pair

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_COMMANDS = re.search(
    r"^## Command line$.*?^```sh$\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S
).group(1).splitlines()


def run_cleanly(argv, cwd, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(argv, input=stdin, capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
    assert result.stderr == ""


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    run_cleanly([sys.executable, str(demo)], ROOT)


def test_readme_commands_exist():
    assert README_COMMANDS


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_runs_cleanly(line, tmp_path):
    # `global pair.json` reads a pair from the working directory; an
    # `echo … |` prefix feeds its argument on stdin.
    (tmp_path / "pair.json").write_text(json.dumps(pair_to_dict(quadrilateral_pair())))
    stdin = None
    if line.startswith("echo "):
        echo, line = line.split(" | ")
        stdin = shlex.split(echo)[1] + "\n"
    program, *args = shlex.split(line)
    assert program == "orbeuler"
    run_cleanly([sys.executable, "-m", "orbeuler", *args], tmp_path, stdin)
