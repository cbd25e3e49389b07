"""The walkthroughs in demos/ run to completion: each in its own process,
with the package's source on the path and a fresh working directory.
05_scaling.py, a timing sweep of several seconds, is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_verify_and_correct.py",
    "02_output_sensitive_multiply.py",
    "03_fingerprint_machinery.py",
    "04_reductions.py",
])
def test_demo_exits_cleanly(demo, tmp_path):
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
