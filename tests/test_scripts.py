"""Smoke tests of the exploration scripts in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincheck

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["bratteli_table.py"],
    ["spectrum_demo.py", "--skip-checks", "--parity", "even"],
    ["spectrum_demo.py", "--skip-checks", "--parity", "odd"],
])
def test_script_runs(argv):
    # the child imports the same spincheck as this process
    src = os.path.dirname(os.path.dirname(spincheck.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
