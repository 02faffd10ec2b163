"""Every script in demos/ runs to completion on this checkout, with a
RuntimeWarning made an error as in the pytest configuration."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
