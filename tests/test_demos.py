"""Smoke test for the demo scripts: each must run to completion.

Demos 01 (finite-difference gradient check) and 02 (train, evaluate and
retrieve on a synthetic corpus) take about 3 s each and exercise
``grad_check``, ``train`` and retrieval end to end. Demos 03 and 04 are
left out: they take about 44 s and 34 s, and the acceptance suite already
covers the method comparison and the pairing regimes they show. Every
demo, 03 and 04 included, and every python block of the README is parsed
instead, and each name it imports from tripletrec must exist."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def python_sources():
    """(name, source) of every demo script and README python block."""
    sources = [(path.name, path.read_text(encoding="utf-8"))
               for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    return sources + [(f"README.md block {i}", block) for i, block in enumerate(blocks, 1)]


@pytest.mark.parametrize("name, source", python_sources(), ids=[n for n, _ in python_sources()])
def test_imports_from_tripletrec_exist(name, source):
    imported = []
    for node in ast.walk(ast.parse(source, name)):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported += [(node.module, alias.name) for alias in node.names]
    imported = [(m, n) for m, n in imported if m.split(".")[0] == "tripletrec"]
    assert imported, f"{name} imports nothing from tripletrec"
    missing = [f"{m}.{n}" if n else m for m, n in imported
               if not hasattr(importlib.import_module(m), n or "__name__")]
    assert not missing, f"{name} imports names tripletrec does not export: {missing}"


@pytest.mark.parametrize("script", ["01_gradient_check.py", "02_train_and_retrieve.py"])
def test_demo_runs_to_completion(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
