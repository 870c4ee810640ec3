"""The repository's pytest configuration reports a failing property as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_from_five(x):
    assert x < 5


def test_after_it():
    pass
"""


def test_a_failing_property_fails_and_shows_its_example(tmp_path):
    # Under filterwarnings = ["error"], the DeprecationWarning that hypothesis'
    # patch writer raises on import ends the session with INTERNALERROR (exit 3)
    # unless the config ignores that one message.
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
