import importlib
import pkgutil

import pytest

import mcsmooth

LIBRARY_MODULES = sorted(m.name for m in pkgutil.iter_modules(mcsmooth.__path__) if m.name != "cli")


def test_library_modules_found():
    assert "objective" in LIBRARY_MODULES and "cli" not in LIBRARY_MODULES


@pytest.mark.parametrize("module", LIBRARY_MODULES)
def test_public_names_are_exported_by_the_package(module):
    names = importlib.import_module(f"mcsmooth.{module}").__all__
    assert [name for name in names if not hasattr(mcsmooth, name)] == []
