"""The test suite's own pytest configuration, and the digest script's pinned series."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from rarecast.cli import main as rarecast_main

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
DIGESTS = ROOT / "scripts" / "repro_digests.py"

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


def test_synth_series_match_the_pinned_digests(monkeypatch, tmp_path):
    # The generator's bytes, as the digest script synthesizes its predict
    # series, checked against the script's committed expectations. The script
    # pins the BLAS thread variables at import; a copy of the environment
    # keeps them from the subprocesses of later tests.
    monkeypatch.setattr(os, "environ", os.environ.copy())
    spec = importlib.util.spec_from_file_location("repro_digests", DIGESTS)
    repro_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(repro_digests)
    expected = set((DIGESTS.parent / "repro_digests.expected").read_text().splitlines())
    for seed in range(5):
        out = tmp_path / f"seed{seed}" / "series"
        assert rarecast_main(repro_digests.synth_argv(seed, out)) == 0
        line = f"{hashlib.sha256((out / 'series.csv').read_bytes()).hexdigest()}  seed{seed}/series/series.csv"
        assert line in expected
