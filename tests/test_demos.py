"""The demo scripts run to completion with every warning an error."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qscissors

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_without_warnings(script):
    src = os.path.dirname(os.path.dirname(qscissors.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-W", "error", str(script)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
