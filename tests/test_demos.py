import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    result = subprocess.run([sys.executable, str(DEMOS / script)], cwd=DEMOS.parent,
                            env=dict(os.environ, PYTHONPATH=SRC),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
