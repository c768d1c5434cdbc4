"""The package's exports: every listed name resolves where it is listed."""

import importlib
import pkgutil

import pytest

import entropath

MODULES = sorted(info.name for info in pkgutil.iter_modules(entropath.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"entropath.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_package_name_is_exported_by_its_module():
    # A name entropath re-exports is listed in the __all__ of the module that defines it.
    for attr, value in vars(entropath).items():
        if attr.startswith("_") or type(value) is type(entropath):
            continue
        home = importlib.import_module(value.__module__)
        assert getattr(home, attr) is value, attr
        if hasattr(home, "__all__"):
            assert attr in home.__all__, (attr, home.__name__)
