import ast
import importlib
import os
import pathlib
import pkgutil
import re
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


def _run_python(*args):
    """Run a fresh interpreter that finds this ptqgt with ``args``; its stdout."""
    src = os.path.dirname(os.path.dirname(ptqgt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_scipy():
    code = ("import sys, ptqgt, ptqgt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _run_python("-c", code).strip() == "[]"


def test_runs_with_scipy_unimportable():
    # the fast suite and qgt where the stencil's level order flips (the
    # family of test_qgt_follows_levels_that_swap_order_across_the_stencil)
    code = """
import sys
sys.modules["scipy"] = None
import numpy as np
from ptqgt import HamiltonianFamily, qgt, verify
assert all(r.passed for r in verify.run_suite("fast"))
sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
fam = HamiltonianFamily(2, 2, lambda lam: (lam[0] + 1j) * sz + lam[1] * sx)
assert all(np.isfinite(qgt(fam, [1e-7, 0.1], n=n).q).all() for n in range(2))
print("ok")
"""
    assert _run_python("-c", code).strip() == "ok"


def _imported_top_level_names(path):
    """Top-level module names ``path`` imports, lazy imports included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_dependencies_follow_the_imports():
    tomllib = pytest.importorskip("tomllib")
    package = pathlib.Path(ptqgt.__file__).parent
    imported = set().union(*map(_imported_top_level_names, package.glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"ptqgt"}
    pyproject = package.parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in deps}
    assert third_party == declared


def test_python_m_ptqgt_runs_the_cli():
    out = _run_python("-m", "ptqgt", "verify", "--suite", "fast")  # exits 0 on success
    assert "PASS" in out and "FAIL" not in out
