"""The benchmark tracer wraps program names by attribute; each must exist.

``perfbench/traced.py`` patches every ``piqcheck`` module as it loads, reading
each name it wraps.  A deleted or renamed name fails that read, so this test
loads every module through the tracer's import hook in a fresh interpreter
and fails here, not only in a traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import piqcheck

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(piqcheck.__file__).resolve().parents[1])
MODULES = ("exact", "dsl", "series", "theta", "catalog", "field", "modular", "cli")

PROBE = f"""
import importlib, json, runpy, sys

traced = runpy.run_path({str(ROOT / "perfbench" / "traced.py")!r})
tracer = traced["Tracer"]()
patched = []
patch = tracer.patch
tracer.patch = lambda module: (patch(module), patched.append(module.__name__))
sys.meta_path.insert(0, traced["_PatchingFinder"](tracer))
for name in {MODULES!r}:
    importlib.import_module("piqcheck." + name)
print(json.dumps(sorted(patched)))
"""


def test_every_name_the_tracer_wraps_exists():
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == sorted(f"piqcheck.{name}" for name in MODULES)
