"""Every demo script runs to completion as a fresh process, and the README's quick start as written."""

import ast
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


def readme_quick_start():
    """The python block under the README's "Library quick start" heading."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_the_readme_quick_start_gives_the_values_its_comments_give():
    # each expression line's comment opens with the repr of its value
    source = readme_quick_start()
    lines = source.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            value = eval(code, namespace)
            comment = lines[stmt.lineno - 1].partition("#")[2].strip()
            assert comment.startswith(repr(value)), (code, comment)
            checked.append(code)
        else:
            exec(code, namespace)
    assert checked == ["gaussian(2, 2)", "count_P(10, 3, 4)", "result.passed", "result.params"]
