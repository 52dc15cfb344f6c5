"""Module boundaries: every public class or function lives in the module that exports it,
and its annotations resolve there."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import twohopsec

MODULES = [importlib.import_module(f"twohopsec.{info.name}")
           for info in pkgutil.iter_modules(twohopsec.__path__) if info.name != "__main__"]


def exported(module) -> list:
    """The classes and functions in ``module.__all__``."""
    objs = [getattr(module, name) for name in getattr(module, "__all__", ())]
    return [obj for obj in objs if inspect.isclass(obj) or inspect.isfunction(obj)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_no_module_reexports_another_modules_name(module):
    for obj in exported(module):
        assert obj.__module__ == module.__name__, obj.__qualname__


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_annotations_resolve(module):
    # an annotation that names a module its own module does not import raises NameError here
    for obj in exported(module):
        typing.get_type_hints(obj)
