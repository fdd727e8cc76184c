"""The repo's pytest settings, under a bare pytest and as CI runs it."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
"""


@pytest.mark.parametrize("flags", [[], ["-X", "dev", "-W", "error"]], ids=["bare", "ci"])
def test_a_failing_given_test_reports_its_example(tmp_path, flags):
    # With warnings as errors, a deprecation warning that hypothesis's
    # failure report raises used to replace the report with an INTERNALERROR.
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, *flags, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
