import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_loads_no_scipy():
    code = ("import sys, ptqgt, ptqgt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(ptqgt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
