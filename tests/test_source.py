"""Properties of the library source itself."""

import ast
import doctest
import importlib
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "genhurwitz"


def test_no_assert_statements():
    # python -O strips asserts, so no library check may rest on one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 8
    assert not found, found


def test_no_unused_imports():
    # every imported name is read somewhere in its module, library and
    # tests alike; the package __init__ re-exports, so it is exempt
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_docstring_examples_hold():
    # the suite collects tests/ only, so the docstring examples run here
    failed, attempted = [], 0
    for path in sorted(SRC.glob("*.py")):
        name = "genhurwitz" if path.stem == "__init__" \
            else f"genhurwitz.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        attempted += result.attempted
        if result.failed:
            failed.append(f"{name}: {result.failed} of {result.attempted}")
    assert not failed, failed
    assert attempted > 0
