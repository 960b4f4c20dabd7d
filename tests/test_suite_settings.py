"""The suite's own pytest settings."""

import subprocess
import sys
from pathlib import Path

from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]

# one property test that fails and one plain test after it
PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_property_test_does_not_abort_the_run(tmp_path):
    # hypothesis's failure report imports libcst, whose mypy_extensions
    # import warns DeprecationWarning; the "error" filter made that abort
    # pytest with INTERNALERROR (exit 3), so no later test ran
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_property_failures_print_a_replay_blob():
    # the suite's profile (tests/conftest.py) changes this one setting
    assert settings.default.print_blob
    assert settings.default.derandomize is False
