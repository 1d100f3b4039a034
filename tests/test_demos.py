"""Each demo runs to completion against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(ROOT.glob("demos/0[1-4]_*.py"))
SHELL_DEMOS = sorted(ROOT.glob("demos/0[1-9]_*.sh"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHON": sys.executable}


def test_demos_found():
    assert len(DEMOS) == 4
    assert [p.name for p in SHELL_DEMOS] == ["05_cli_pipeline.sh"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", SHELL_DEMOS, ids=lambda p: p.name)
def test_shell_demo_runs(demo):
    proc = subprocess.run(["sh", str(demo)], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "EM" in proc.stdout and '"query"' in proc.stdout
