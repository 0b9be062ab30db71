"""Smoke test for the demo scripts: each must run to completion.

Demos 01 (finite-difference gradient check) and 02 (train, evaluate and
retrieve on a synthetic corpus) take about 3 s each and exercise
``grad_check``, ``train`` and retrieval end to end. Demos 03 and 04 are
left out: they take about 44 s and 34 s, and the acceptance suite already
covers the method comparison and the pairing regimes they show."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["01_gradient_check.py", "02_train_and_retrieve.py"])
def test_demo_runs_to_completion(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
