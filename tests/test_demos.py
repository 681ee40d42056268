"""Every script under `demos/` runs to completion.

Each demo runs in a fresh interpreter that imports the package from `src/`
and writes no bytecode, so the checkout stays as it is.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_cleanly(path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, path], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
