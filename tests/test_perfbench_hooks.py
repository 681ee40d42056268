"""The benchmark's tracer finds every package function it hooks.

`perfbench/tracer.py` wraps package functions by name; a renamed or
deleted function would otherwise turn its per-layer metric into a silent
zero.  The tracer is installed in a fresh interpreter (no bytecode is
written), so this process and the files under `perfbench/` stay as they are.
The tracer counts field operations by wrapping the field classes' methods,
so a table lookup in F_4 must still pass through them.
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
# the tabulated Conway fields must still be counted per operation
F4 = pkg.fields.GF(2, 2)
a, b = F4.gen(), F4.one
tracer.on = True
counts = []
for op in ("mul", "add"):
    before = tracer.calls["fields." + op]
    getattr(F4, op)(a, b)
    counts.append(tracer.calls["fields." + op] - before)
tracer.on = False
print(json.dumps({"missing": tracer.missing, "unresolved": unresolved,
                  "gf4_mul_add_calls": counts}))
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
    assert result["gf4_mul_add_calls"] == [1, 1]
