import importlib
import pkgutil

import pytest

import stokes_sdg

# the package re-exports nothing, so the __all__ of each module is its API
APIS = [module for module in (importlib.import_module(f"stokes_sdg.{info.name}")
                              for info in pkgutil.iter_modules(stokes_sdg.__path__))
        if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", APIS, ids=lambda module: module.__name__.split(".")[-1])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
