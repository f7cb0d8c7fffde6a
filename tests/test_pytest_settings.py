"""The repository's pytest settings keep a failing property test's report."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_a_failing_property_test_prints_its_example(tmp_path):
    # Under filterwarnings = ["error"], hypothesis's failure report imports
    # mypy_extensions where it is installed, and that module's deprecation
    # warning ended the session with INTERNALERROR and no example.  Where
    # mypy_extensions is not installed, this passes with or without the
    # filter entry that mends it.
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
