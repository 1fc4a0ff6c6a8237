"""Package-level checks: every exported name exists, and the test
configuration reports a failing hypothesis test like any other failure."""

import importlib
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import hodgefem

# the package's __all__ names its modules, which are attributes once imported
MODULES = [hodgefem] + [importlib.import_module(f"hodgefem.{m}") for m in hodgefem.__all__]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}, which it does not define"
    assert len(set(module.__all__)) == len(module.__all__)


_SAMPLE = """
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    """Under this repository's warning filters, a failing hypothesis test is
    one failure and the test after it still runs (no INTERNALERROR)."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    filters = tomllib.loads(pyproject.read_text())["tool"]["pytest"]["ini_options"]
    lines = "".join(f"    {f}\n" for f in filters["filterwarnings"])
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings =\n{lines}")
    (tmp_path / "test_sample.py").write_text(_SAMPLE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
