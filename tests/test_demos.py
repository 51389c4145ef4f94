"""Every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_0(demo):
    """A numpy RuntimeWarning fails a demo as it fails the suite: the demos
    run in child processes, outside the suite's warning filters."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
