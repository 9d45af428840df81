"""Every demo script runs to completion against the package in src/.

The demos use the public API the way a reader would, so a removed or
renamed name shows up here even where no unit test imports it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"05_policy_comparison.py"}  # three full policy runs, ~10 s


@pytest.mark.parametrize("demo", [
    pytest.param(d, id=d.name, marks=[pytest.mark.slow] if d.name in SLOW else [])
    for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the demos load configs/ relative to the repository root
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("hierdispatch_demo_*")), "demo left its temp files"
