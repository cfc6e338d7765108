"""Every export list names defined objects, each once, so a removed public
name cannot stay behind in one."""

import importlib
import pkgutil

import pytest

import costboost

MODULES = [costboost] + [importlib.import_module(f"{costboost.__name__}.{info.name}")
                         for info in pkgutil.iter_modules(costboost.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda module: module.__name__)
def test_export_list_names_each_defined_name_once(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
