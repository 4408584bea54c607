"""Rules on the package source that a run of the program cannot show."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "conewalk"


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
