"""Smoke runs of the experiment scripts: each one starts, runs a tiny
configuration end to end and prints its table header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("flip_vs_exact.py", ["--max-n", "4", "--trials", "200"], "gap/se"),
        ("timeopt_scaling.py", ["--sizes", "8,16", "--trials", "20"], "n*H_n"),
        ("gros_adversarial.py", ["--max-n", "5"], "worst start names"),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    first_line = result.stdout.splitlines()[0]
    assert header in first_line
