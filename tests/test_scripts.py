"""Smoke tests for the scripts that import the package."""

import os
import subprocess
import sys
from pathlib import Path

from boxkit.harness import ALL_BOUNDS

ROOT = Path(__file__).resolve().parent.parent


def test_soundness_table_small():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "soundness_table.py"), "--max-n", "5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("graphs enumerated: ")
    rows = [line.split()[0] for line in lines[2:]]
    assert rows == list(ALL_BOUNDS)
