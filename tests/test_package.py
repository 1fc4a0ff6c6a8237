"""Package-level checks: every exported name exists, every function of the
package is run by a command, and the test configuration reports a
failing hypothesis test like any other failure."""

import importlib
import json
import os
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


# run in a fresh interpreter, so that no cache filled by an earlier test
# (``reference_element``, ``quadrature_rule``, a field's callback) hides a
# call; the profile is set before the package is imported
_TRACE = """
import functools, inspect, json, sys
from pathlib import Path

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


out = Path(sys.argv[1])
sys.setprofile(profile)
import hodgefem
from hodgefem.cli import main
from hodgefem.fields import FIELDS
from hodgefem.mesh import CRISSCROSS, format_mesh, generate_square_mesh

# a mesh file as the benchmark writes its own, by format_mesh
(out / "mesh.txt").write_text(format_mesh(generate_square_mesh(3, CRISSCROSS)))
(out / "config.json").write_text(json.dumps({"field": "trigflow", "pattern": "crisscross"}))
runs = [["verify", "--simplices", "1", "--triangles", "2"]]
runs += [["solve", "--refinements", "2", "--field", name] for name in sorted(FIELDS)]
runs += [
    ["--config", str(out / "config.json"), "solve", "--refinements", "2"],
    ["interpolate", "--refinements", "2,3"],
    # solve refuses these two, so interpolate enters their value, rot and div
    ["interpolate", "--refinements", "2", "--field", "sinshear"],
    ["interpolate", "--refinements", "2", "--field", "affine"],
    ["basis", "--mesh-file", str(out / "mesh.txt")],
]
codes = [main([*run, "--out", str(out / "out")]) for run in runs]
sys.setprofile(None)


def functions(value):  # the Python functions behind a module or class attribute
    if isinstance(value, property):
        return [f for f in (value.fget, value.fset, value.fdel) if f]
    if isinstance(value, functools.cached_property):
        value = value.func
    value = inspect.unwrap(getattr(value, "__func__", value))  # static, class, lru_cache
    return [value] if inspect.isfunction(value) else []


package = Path(hodgefem.__file__).parent
never = set()
for module in (sys.modules[f"hodgefem.{m}"] for m in hodgefem.__all__):
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # imported from elsewhere
        members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
        for attr, value in members:
            qualname = ".".join(filter(None, (module.__name__[9:], name, attr)))
            if qualname.rsplit(".", 1)[1].startswith("__"):
                continue
            for f in functions(value):
                # generated methods (a namedtuple's) live in another file
                if Path(f.__code__.co_filename).parent == package and f.__code__ not in entered:
                    never.add(qualname)
print(json.dumps({"codes": codes, "never": sorted(never)}))
"""

# the package's functions that no command enters, each with its reason
NOT_RUN_BY_A_COMMAND = {
    "verify.CheckResult.line": "runs only when a verification check fails",
    "fields._sinshear_f": "only solve evaluates a forcing, and assemble still takes the field",
}


def test_every_package_function_is_run_by_a_command(tmp_path):
    """verify, solve for every field (refused for the two that do not solve
    the model problem, each other one checked against its oracle, and one
    through a config file), interpolate (of those two fields too) and
    basis on a mesh file, traced in one interpreter: every module-level
    function and method of the package (dunders aside) is entered, apart
    from the named ones."""
    src = Path(hodgefem.__file__).resolve().parents[1]
    paths = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    run = subprocess.run(
        [sys.executable, "-c", _TRACE, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    # verify; solve for affine, polyflow, sinshear and trigflow, of which
    # the two that do not solve the model problem exit 2; the config
    # solve; three interpolate runs; basis
    assert report["codes"] == [0, 2, 0, 2, 0, 0, 0, 0, 0, 0]
    assert set(report["never"]) == set(NOT_RUN_BY_A_COMMAND)
