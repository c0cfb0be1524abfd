"""The suite's pytest settings: warnings are errors, yet a failing
``hypothesis`` test still gets a normal failure report."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_given_test_reports_and_the_suite_goes_on(tmp_path):
    # hypothesis's failure report imports libcst, whose import raises a
    # DeprecationWarning; under the suite's filterwarnings = ["error"] that
    # warning alone would end the session with an INTERNALERROR
    (tmp_path / "test_given.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(database=None)\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n"
        "def test_after():\n"
        "    pass\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_given.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr, run.stdout
    assert "Falsifying example" in run.stdout, run.stdout
    assert "1 failed, 1 passed" in run.stdout, run.stdout
