import importlib
import inspect
import pkgutil

import pytest

import biokex

MODULES = [importlib.import_module(m.name) for m in pkgutil.iter_modules(biokex.__path__, "biokex.")]
LISTED = {m.__name__: m.__all__ for m in MODULES if hasattr(m, "__all__")}


@pytest.mark.parametrize("name", ["biokex", *sorted(LISTED)])
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    if name == "biokex":  # the package re-exports public names of its modules
        names = [n for n, v in vars(module).items() if not n.startswith("_") and not inspect.ismodule(v)]
        assert set(names) <= set().union(*LISTED.values())
    else:
        names = LISTED[name]
    assert [n for n in names if not hasattr(module, n)] == []
