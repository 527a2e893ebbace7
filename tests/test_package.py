"""Hygiene of the package source, mostly checked on its syntax tree:
imports, callers of public code, readers of fields, and error classes."""

import ast
import functools
import importlib
import inspect
from pathlib import Path

from plankb import PlankbError

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


def test_no_package_init_imports_anything():
    """No `__init__.py` re-exports names: each is imported from the module
    that defines it, its one import path."""
    importing = [
        str(path.relative_to(SRC)) for path in _modules()
        if path.name == "__init__.py" and any(
            isinstance(n, (ast.Import, ast.ImportFrom))
            for n in ast.walk(ast.parse(path.read_text(), str(path))))
    ]
    assert importing == []


def test_no_unused_imports():
    unused = []
    for path in _modules():
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


@functools.lru_cache(maxsize=None)
def _trees():
    """The syntax tree of each module of the package and of perfbench/."""
    perfbench = SRC.parents[1] / "perfbench"
    return {
        path: ast.parse(path.read_text(), str(path))
        for path in _modules() + sorted(perfbench.rglob("*.py"))
    }


@functools.lru_cache(maxsize=None)
def _readers():
    """name -> the nodes of `_trees` that read it."""
    readers = {}
    for tree in _trees().values():
        for node in ast.walk(tree):
            name = _read_name(node)
            if name is not None:
                readers.setdefault(name, []).append(node)
    return readers


def _module_name(path):
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def test_every_public_definition_has_a_caller_outside_tests():
    """A public module-level function or class of the package, and a public
    method or property of a class, must be read somewhere in src/ or
    perfbench/ outside its own definition; code that only the tests use
    belongs in tests/.  A method or property is read only as an attribute,
    so a local variable of the same name does not count as a use.  Matching
    is by name, so a same-named attribute elsewhere still counts: a method
    that shares its name with a builtin's, as `Graph.count` did with
    `str.count`, is never caught."""
    unused = set()
    for path in _modules():
        for dotted, node, method in _public_definitions(_trees()[path], _module_name(path)):
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own or (method and not isinstance(n, ast.Attribute))
                   for n in _readers().get(node.name, ())):
                unused.add(dotted)
    assert unused == LIBRARY_API


def test_every_public_field_is_read_outside_tests():
    """A public annotated field of a module-level class, such as a
    NamedTuple field, must be read as an attribute somewhere in src/ or
    perfbench/.  Reads in the class's own methods count, as the caller
    guard above holds each public method to a caller.  Matching is by name,
    as there."""
    unread = set()
    for path in _modules():
        for cls in _trees()[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and not item.target.id.startswith("_")):
                    continue
                name = item.target.id
                if not any(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                           for n in _readers().get(name, ())):
                    unread.add("{}.{}.{}".format(_module_name(path), cls.name, name))
    assert unread == set()


def test_no_class_is_a_dataclass():
    """Importing `dataclasses` costs every CLI command about 8 ms on Python
    3.11 (it loads `inspect`, `ast`, `dis` and `tokenize`), and each
    dataclass about 1 ms more: the source of its generated methods is
    compiled by exec at import and never cached in .pyc.  A record or a
    value type is a NamedTuple instead."""
    found = set()
    for path in _modules():
        module = _module_name(path)
        for node in ast.walk(_trees()[path]):
            if isinstance(node, ast.ClassDef) and any(
                _read_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in node.decorator_list
            ):
                found.add("{}.{}".format(module, node.name))
    assert found == set()


def test_no_class_defines_equality_or_hash():
    """Values compare and hash as tuples of their fields, which NamedTuple
    gives in C; a hand-written `__eq__` or `__hash__` would be a second way
    to do it, and slower."""
    found = set()
    for path in _modules():
        for cls in ast.walk(_trees()[path]):
            if isinstance(cls, ast.ClassDef):
                found.update(
                    "{}.{}.{}".format(_module_name(path), cls.name, item.name)
                    for item in cls.body
                    if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__"))
    assert found == set()


def test_every_error_class_is_a_plankb_error():
    """The CLI exits 1 on a PlankbError, so every exception class of the
    package is one, but for the CLI's UsageError (exit 2)."""
    others = set()
    for path in _modules():
        mod = importlib.import_module(
            "plankb.{}".format(_module_name(path)).removesuffix(".__init__"))
        for cls in vars(mod).values():
            if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                    and issubclass(cls, BaseException) and not issubclass(cls, PlankbError)):
                others.add(cls.__name__)
    assert others == {"UsageError"}


def test_every_module_level_name_is_read_outside_tests():
    """A name that a module of the package assigns at its top level must be
    read, as a name or an attribute, somewhere in src/ or perfbench/; a
    constant that only the tests read belongs in tests/.  Matching is by
    name, as in the caller guard."""
    unread = set()
    for path in _modules():
        for node in _trees()[path].body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not any(
                            isinstance(n.ctx, ast.Load) for n in _readers().get(name.id, ())):
                        unread.add("{}.{}".format(_module_name(path), name.id))
    assert unread == set()
