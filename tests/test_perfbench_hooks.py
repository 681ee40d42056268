"""The benchmark's tracer finds every package function it hooks.

`perfbench/tracer.py` wraps package functions by name; a renamed or
deleted function would otherwise turn its per-layer metric into a silent
zero.  The tracer is installed in a fresh interpreter (no bytecode is
written), so this process and the files under `perfbench/` stay as they are.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = r"""
import importlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import LAYERS, Tracer
pkg = importlib.import_module("carlitz_vmf")
for layer in LAYERS:
    importlib.import_module("carlitz_vmf." + layer)
tracer = Tracer()
tracer.install(pkg)
tracer.metrics([])
read = set(tracer.calls) | set(tracer.self_s) | set(tracer.incl_s)
unresolved = []
for name in sorted(read):
    if name.startswith("fields."):
        continue
    obj = pkg
    for part in name.split("."):
        obj = getattr(obj, part, None)
    if obj is None:
        unresolved.append(name)
print(json.dumps({"missing": tracer.missing, "unresolved": unresolved}))
"""


def test_tracer_hooks_resolve():
    out = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, os.path.join(ROOT, "src"),
         os.path.join(ROOT, "perfbench")],
        capture_output=True, text=True, check=True, timeout=120,
    )
    result = json.loads(out.stdout)
    assert result["missing"] == []
    assert result["unresolved"] == []
