"""Every Python file of the project parses under the `requires-python` floor.

CI runs the suite on Python 3.10 and 3.11; this catches syntax newer than
3.10 (an `except*`, say) on whichever interpreter runs the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for top in ("src", "tests", "perfbench") for p in (ROOT / top).rglob("*.py"))


def test_files_found():
    assert len(FILES) > 20


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
