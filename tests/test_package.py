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


def test_only_swaps_prices_one_target_at_a_time():
    # Option builders price every target of a vote in one walk,
    # swaps.target_costs; transform_cost stays the definition it is checked by.
    found = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if path.name not in ("swaps.py", "__init__.py")
        and "transform_cost" in path.read_text(encoding="utf-8")
    )
    assert not found, found
