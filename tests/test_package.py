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


# Public names that nothing in src/ or perfbench/ calls but that are library
# API: the README's library example calls `bundles.load_problems`, and
# `tests/test_readme.py` runs that example.  The set must match exactly, so
# a name that gains a caller leaves it.
LIBRARY_API = {
    "bundles.load_problems",
}


def _read_name(node):
    """The name a plain name or attribute node reads; None for other nodes.
    An import alone reads nothing."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _public_definitions(tree, module):
    """(dotted name, node, is a method) of each public module-level function
    and class, and of each public method or property of a module-level
    class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield "{}.{}".format(module, node.name), node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "{}.{}.{}".format(module, node.name, item.name), item, True


def test_every_public_definition_has_a_caller_outside_tests():
    """A public module-level function or class of the package, and a public
    method or property of a class, must be read somewhere in src/ or
    perfbench/ outside its own definition; code that only the tests use
    belongs in tests/.  A method or property is read only as an attribute,
    so a local variable of the same name does not count as a use.  Matching
    is by name, so a same-named attribute elsewhere still counts: a method
    that shares its name with a builtin's, as `Graph.count` did with
    `str.count`, is never caught."""
    perfbench = SRC.parents[1] / "perfbench"
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for path in _modules() + sorted(perfbench.rglob("*.py"))
    }
    readers = {}  # name -> the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            name = _read_name(node)
            if name is not None:
                readers.setdefault(name, []).append(node)
    unused = set()
    for path in _modules():
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for dotted, node, method in _public_definitions(trees[path], module):
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own or (method and not isinstance(n, ast.Attribute))
                   for n in readers.get(node.name, ())):
                unused.add(dotted)
    assert unused == LIBRARY_API


def test_no_class_is_a_dataclass():
    """Importing `dataclasses` costs every CLI command about 8 ms on Python
    3.11 (it loads `inspect`, `ast`, `dis` and `tokenize`), and each
    dataclass about 1 ms more: the source of its generated methods is
    compiled by exec at import and never cached in .pyc.  A plain record is
    a NamedTuple instead, and a value type a slotted `frozen.Frozen`
    subclass that writes out its own methods."""
    found = set()
    for path in _modules():
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                _read_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in node.decorator_list
            ):
                found.add("{}.{}".format(module, node.name))
    assert found == set()
