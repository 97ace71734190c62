"""The repository's pytest settings, checked in a child pytest run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

THROWAWAY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, deadline=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x is None


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_the_rest_of_the_run_reported(tmp_path):
    # Warnings are errors under the repository's settings, and hypothesis
    # imports more modules while it reports a failure: a warning raised
    # there must not end the run before the next test.
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_throwaway.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
