import importlib
import pkgutil

import pytest

import ptqgt

# The front ends are reached as submodules (``ptqgt.cli``, ``ptqgt.verify``);
# every library module's public names are re-exported by the package.
FRONT_ENDS = {"cli", "verify", "__main__"}
LIBRARY = sorted(m.name for m in pkgutil.iter_modules(ptqgt.__path__)
                 if m.name not in FRONT_ENDS)


@pytest.mark.parametrize("name", LIBRARY)
def test_package_reexports_every_public_name(name):
    module = importlib.import_module(f"ptqgt.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if getattr(ptqgt, n, None) is not getattr(module, n)]
    assert missing == []
