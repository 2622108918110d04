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


def test_file_calls_name_their_encoding():
    # Files are UTF-8 whatever the locale, so every text read and write says so.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("read_text", "write_text", "open")
        and not any(keyword.arg == "encoding" for keyword in node.keywords)
    ]
    assert not found, found
