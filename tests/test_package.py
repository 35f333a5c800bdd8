import importlib
import pkgutil

import pytest

import dualgas

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(dualgas.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition goes breaks star imports
    # and the span recorders that wrap every public function
    mod = importlib.import_module(f"dualgas.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
