"""The suite's pytest settings (pyproject.toml), run on a scratch suite."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_fails_alone(tmp_path):
    # with deprecations as errors, hypothesis's failure report imports a
    # module that warns on import; pytest must still report that one test
    # failed and run the next one (exit 1), not stop with an internal
    # error (exit 3)
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pair.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTEST_")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout
    assert "1 failed, 1 passed" in run.stdout
