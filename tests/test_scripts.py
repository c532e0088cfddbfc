"""The demo scripts stay runnable: each runs at a tiny size in a fresh
interpreter and must exit 0 with some output."""
from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("bad_sequence_tour.py", ["--window", "6"]),
    ("transport_battery.py", ["--trials", "5", "--bound", "32"]),
    ("partition_survey.py", ["--window", "6", "--samples", "20"]),
])
def test_script_runs(script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip()
