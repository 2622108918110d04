"""Rules that hold for the package's source as a whole."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "swapbribery"


def test_no_assert_statements():
    # `python -O` strips assert statements, so runtime invariants raise instead.
    paths = sorted(SOURCE.glob("*.py"))
    assert paths, SOURCE
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
