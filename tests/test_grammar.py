"""Every Python file in the repository parses under the oldest grammar the package supports."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# pyproject.toml: requires-python = ">=3.10"
OLDEST = (3, 10)
SOURCES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests", "benchmarks", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def test_the_guard_sees_every_source_folder():
    assert {path.parts[0] for path in SOURCES} == {"src", "tests", "benchmarks", "demos"}


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_parses_under_the_oldest_supported_grammar(path):
    # grammar only: a call into a library newer than 3.10 still parses
    ast.parse((ROOT / path).read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
