"""The package imports nothing outside the standard library, and holds
no import, private helper or public name that nothing outside the tests
reads.

Every module under `src/carlitz_vmf/` is parsed, not imported, so an
import inside a function or behind a condition counts too.
"""

import ast
import glob
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "carlitz_vmf", "*.py")))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _absolute_imports(path):
    """(line, top-level name) of each absolute import in the file."""
    for node in ast.walk(_parse(path)):
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


def test_importing_the_package_starts_no_process_pool():
    """Importing every layer, in a fresh interpreter, loads neither
    `multiprocessing` nor `concurrent.futures`: the engine runs in one
    process, and their import would cost every CLI start."""
    names = ["carlitz_vmf." + os.path.basename(p)[:-3] for p in MODULES
             if os.path.basename(p) != "__init__.py"]
    script = ("import importlib, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "for name in sys.argv[2:]:\n"
              "    importlib.import_module(name)\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
              "             ('multiprocessing', 'concurrent')))\n")
    out = subprocess.run(
        [sys.executable, "-B", "-c", script, os.path.join(ROOT, "src")]
        + names, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _unused_imports(path):
    """(line, name) of each module-level import name the module never reads."""
    tree = _parse(path)
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


def _defs(tree):
    """Each module-level function or class and each method of a
    module-level class."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs + (ast.ClassDef,)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (d for d in node.body if isinstance(d, funcs))


def _reads(tree, strings=False):
    """(name, line) of each name and attribute read; with ``strings``, also
    the dotted parts of string constants (the benchmark's tracer names
    what it wraps by strings)."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id, n.lineno
        elif isinstance(n, ast.Attribute):
            yield n.attr, n.lineno
        elif (strings and isinstance(n, ast.Constant)
              and isinstance(n.value, str)):
            for part in n.value.split("."):
                yield part, n.lineno


def test_no_unreferenced_private_functions():
    """Every private function or method is read somewhere in the package,
    as a name or as an attribute, so a helper left behind by a refactor
    fails here; dunder methods are not private."""
    trees = {path: _parse(path) for path in MODULES}
    read = {name for tree in trees.values() for name, _ in _reads(tree)}
    unused = [(os.path.basename(path), d.lineno, d.name)
              for path, tree in trees.items() for d in _defs(tree)
              if not isinstance(d, ast.ClassDef) and d.name.startswith("_")
              and not d.name.endswith("__") and d.name not in read]
    assert not unused, f"private functions nothing references: {unused}"


def test_no_public_api_that_only_tests_reach():
    """Every public function, class or method is read somewhere besides the
    tests: in the package outside its own definition, in a demo or the
    benchmark, or by name in backticks in README.md, which documents the
    paper checks that only tests call."""
    trees = {path: _parse(path) for path in MODULES}
    src_reads = [(path, name, line) for path, tree in trees.items()
                 for name, line in _reads(tree)]
    elsewhere = set()
    for path in (glob.glob(os.path.join(ROOT, "demos", "*.py"))
                 + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        elsewhere |= {name for name, _ in _reads(_parse(path), strings=True)}
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        prose = re.sub(r"```.*?```", "", fh.read(), flags=re.DOTALL)
    for span in re.findall(r"`([^`]+)`", prose):
        elsewhere |= set(re.findall(r"[A-Za-z_]\w*", span))
    unread = []
    for path, tree in trees.items():
        for d in _defs(tree):
            if d.name.startswith("_") or d.name in elsewhere or any(
                    name == d.name
                    and not (p == path and d.lineno <= line <= d.end_lineno)
                    for p, name, line in src_reads):
                continue
            unread.append((os.path.basename(path), d.lineno, d.name))
    assert not unread, f"public names only tests reach: {unread}"
