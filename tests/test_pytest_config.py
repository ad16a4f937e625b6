"""The suite's pytest settings: a failing hypothesis test reports its
falsifying example and the session goes on to the tests after it."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x is None


def test_runs_after_the_failure():
    pass
'''


def test_failing_given_test_prints_its_example_under_the_warning_filter(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "1 failed, 1 passed" in output
