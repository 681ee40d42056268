"""The package imports nothing outside the standard library.

Every module under `src/carlitz_vmf/` is parsed, not imported, so an
import inside a function or behind a condition counts too.
"""

import ast
import glob
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "carlitz_vmf", "*.py")))


def _absolute_imports(path):
    """(line, top-level name) of each absolute import in the file."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_modules_are_found():
    names = {os.path.basename(p) for p in MODULES}
    assert {"__init__.py", "useries.py", "polys.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_imports_are_stdlib(path):
    outside = [(line, name) for line, name in _absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert not outside, f"non-stdlib imports in {path}: {outside}"


def _unused_imports(path):
    """(line, name) of each module-level import name the module never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


# __init__.py imports to re-export, so its names are read by its users
@pytest.mark.parametrize(
    "path", [p for p in MODULES if os.path.basename(p) != "__init__.py"],
    ids=os.path.basename)
def test_no_unused_imports(path):
    unused = _unused_imports(path)
    assert not unused, f"unused imports in {path}: {unused}"


def _private_defs(tree):
    """(line, name) of each private module-level function and method of a
    module-level class; dunder methods are not private."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for d in body:
            if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and d.name.startswith("_") and not d.name.endswith("__")):
                yield d.lineno, d.name


def test_no_unreferenced_private_functions():
    """Every private function or method is read somewhere in the package,
    as a name or as an attribute, so a helper left behind by a refactor
    fails here."""
    trees = {}
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            trees[path] = ast.parse(fh.read(), filename=path)
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    unused = [(os.path.basename(path), line, name)
              for path, tree in trees.items()
              for line, name in _private_defs(tree) if name not in read]
    assert not unused, f"private functions nothing references: {unused}"
