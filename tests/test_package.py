"""Rules that hold for the package's source as a whole."""

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE = REPO / "src" / "swapbribery"


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


def test_every_public_definition_is_run_or_documented():
    # src/ holds what the command line and the documented library run. A
    # public top-level name is used by the package itself, written in
    # backticks in README.md, or called by the benchmark; code only the
    # tests call lives in the tests.
    used = set()
    for path in SOURCE.glob("*.py"):
        if path.name == "__init__.py":  # re-exporting a name is no use of it
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    for span in re.findall(r"`([^`\n]+)`", (REPO / "README.md").read_text(encoding="utf-8")):
        used.update(re.findall(r"\w+", span))
    bench = "\n".join(p.read_text(encoding="utf-8") for p in sorted((REPO / "perfbench").glob("*.py")))
    found = [
        f"{path.name}:{node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
        and not re.search(rf"\b{node.name}\b", bench)
    ]
    assert not found, found
