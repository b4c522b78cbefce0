"""Every demo script runs to completion as a fresh process."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, cwd=ROOT
    )


def test_demos_are_found():
    assert "generating_functions.py" in [path.name for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    if path.name == "generating_functions.py":
        mismatches = re.search(r"mismatches .*: (\d+)$", proc.stdout, re.MULTILINE)
        assert mismatches is not None
        assert mismatches.group(1) == "0"
