"""The repository's pytest configuration, as the tier-1 command runs it."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10
"""

FAILING_LARGE = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.just("x" * 60_000))
def test_fails(text):
    assert not text
"""


def _run_failing(tmp_path, source):
    """The output of a failing test file run under the tier-1 flags."""
    (tmp_path / "test_fails.py").write_text(source)
    run = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q",
         "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True)
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    return output


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="hypothesis writes no failing patch without libcst")
def test_failing_hypothesis_test_shows_its_example_under_w_error(tmp_path):
    # On a failure hypothesis's patch writer imports libcst, which warns on
    # import; `pyproject.toml` filters that warning, so `-W error` does not
    # turn it into an INTERNALERROR that hides the falsifying example.
    output = _run_failing(tmp_path, FAILING)
    assert "Falsifying example: test_fails(" in output
    assert "INTERNALERROR" not in output
    assert "1 failed" in output


def test_failing_hypothesis_test_with_a_large_argument_shows_its_example(tmp_path):
    # Printing a 60 kB argument makes hypothesis warn about the repr's size;
    # `pyproject.toml` filters that warning, so `-W error` does not report it
    # in place of the falsifying example.
    output = _run_failing(tmp_path, FAILING_LARGE)
    assert "Falsifying example: test_fails(" in output
    assert "HypothesisWarning" not in output
