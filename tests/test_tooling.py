"""The test suite's own pytest configuration."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 5


def test_later_test_still_runs():
    pass
"""


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # Hypothesis reports a failing example through libcst, whose import warns
    # with a DeprecationWarning; the suite's warnings-as-errors filters must
    # not turn that into an INTERNALERROR that skips every later test.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout, run.stdout
