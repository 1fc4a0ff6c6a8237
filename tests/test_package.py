"""Package-level checks: every exported name exists."""

import importlib

import pytest

import hodgefem

# the package's __all__ names its modules, which are attributes once imported
MODULES = [hodgefem] + [importlib.import_module(f"hodgefem.{m}") for m in hodgefem.__all__]


@pytest.mark.parametrize("module", MODULES, ids=lambda mod: mod.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names {missing}, which it does not define"
    assert len(set(module.__all__)) == len(module.__all__)
