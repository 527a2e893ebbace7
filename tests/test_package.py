"""Import hygiene of the package source, checked on its syntax tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "plankb"


def _modules():
    return sorted(SRC.rglob("*.py"))


def _imported_names(tree):
    """(name, line) bound by each import, `from __future__` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _is_package_import(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").partition(".")[0] == "plankb"
    return isinstance(node, ast.Import) and any(
        a.name.partition(".")[0] == "plankb" for a in node.names
    )


def test_no_unused_imports():
    unused = []
    for path in _modules():
        if path.name == "__init__.py":  # re-export files
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name, line in _imported_names(tree):
            if name not in used:
                unused.append("{}:{}: {}".format(path.relative_to(SRC), line, name))
    assert unused == []


def test_no_package_import_inside_a_function():
    local = []
    for path in _modules():
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if _is_package_import(node):
                    local.append("{}:{}: in {}".format(
                        path.relative_to(SRC), node.lineno, fn.name))
    assert local == []
