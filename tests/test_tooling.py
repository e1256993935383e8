"""The suite's own configuration: pyproject's warning filters keep a
failing hypothesis example a plain test failure."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

THROWAWAY = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def _tree(root: Path) -> dict:
    return {str(p): p.stat().st_mtime_ns for p in root.rglob("*")}


def test_failing_hypothesis_example_does_not_end_the_run(tmp_path):
    """hypothesis's failure report imports libcst, which warns that
    mypy_extensions.TypedDict is deprecated. With every warning an error,
    that warning was an INTERNALERROR that stopped the run (exit 3) before
    any later test ran. Under the repo's config, a failing ``@given`` test
    beside a passing one now fails alone, and the run writes nothing into
    the checkout."""
    (tmp_path / "test_throwaway.py").write_text(THROWAWAY, encoding="utf-8")
    before = _tree(ROOT)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert _tree(ROOT) == before
