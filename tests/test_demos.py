import os
import subprocess
import sys
from pathlib import Path

import pytest

import hamshoot

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (_ROOT / "demos").glob("0*.py")))
def test_demo_runs_clean(demo):
    """Each demo script runs to exit 0 with nothing on stderr, on the hamshoot
    this process imported and without writing bytecode."""
    src = str(Path(hamshoot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(_ROOT / "demos" / demo)], cwd=src,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
