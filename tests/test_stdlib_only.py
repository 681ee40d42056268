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
