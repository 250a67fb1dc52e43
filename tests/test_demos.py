"""Every demo script runs to completion against the package under test.

The demos use the public API; a removed or renamed name breaks them, and
nothing else runs them.  Each one runs in a child interpreter from the
repository root, as its docstring says, with the package on an absolute
``PYTHONPATH`` because ``end_to_end_cli.py`` starts its own children from
a temporary directory.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demo scripts under demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=REPO,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
