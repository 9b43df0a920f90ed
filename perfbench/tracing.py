"""Spans and counters recorded from outside the ``ptqgt`` package.

``Tracer.install`` wraps every public function of each layer module by
rebinding module attributes, including the by-name imports other ptqgt
modules hold (``from .biortho import biortho_eig`` and the like), and
wraps ``numpy.linalg.eig`` / ``scipy.linalg.eig`` to count decomposed
matrices. Nothing under ``src/`` is edited. ``uninstall`` restores every
binding it changed.

Spans live in flat arrays (name, start, end, parent, op id, eig count)
while the run lasts and are written out once at the end.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "scan", "xy_chain", "geometry", "dynamics", "biortho",
          "modelfile", "families")

# Modules whose family factories return closures worth timing as the
# family-evaluation layer.
_FAMILY_LAYERS = ("families", "modelfile")


def self_times(start, end, parent):
    """Duration of each span minus the part of it its children cover.

    ``parent[i]`` is the index of span i's parent, or -1. Children are
    clipped to their parent's interval and merged, so overlapping or
    out-of-bounds children are not subtracted twice.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        spans = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in spans:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


class Tracer:
    """In-memory span recorder. Single-threaded, one instance per run."""

    def __init__(self):
        self.active = False
        self.op_id = -1  # -1 while setting up
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.eig = array("q")  # matrices decomposed while the span was innermost
        self.eig_incl = array("q")  # ... anywhere below it
        self._stack: list[int] = []
        self.eig_total = 0
        self.eig_by_layer: Counter = Counter()
        self.refusals: Counter = Counter()
        self.counts: Counter = Counter()
        self.scan_ok = 0
        self.scan_unbroken = 0
        self.qgt_dims: list[tuple[int, int]] = []  # (span index, dim_param)
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict = {}

    # ----------------------------------------------------------- spans

    def _nid(self, name: str, layer: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.name_ids[name] = nid
            self.names.append(name)
            self.name_layer.append(layer)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.eig.append(0)
        self.eig_incl.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        p = self.parent[idx]
        if p >= 0:
            self.eig_incl[p] += self.eig_incl[idx]

    def _refused(self, idx: int, layer: str) -> None:
        """Count a typed refusal where it leaves ``layer``."""
        p = self.parent[idx]
        if p < 0 or self.name_layer[self.name[p]] != layer:
            self.refusals[layer] += 1

    def _count_eig(self, a) -> None:
        shape = getattr(a, "shape", None)
        n = 1
        if shape is not None and len(shape) > 2:
            for s in shape[:-2]:
                n *= s
        self.eig_total += n
        if self._stack:
            top = self._stack[-1]
            self.eig[top] += n
            self.eig_incl[top] += n
            self.eig_by_layer[self.name_layer[self.name[top]]] += n
        else:
            self.eig_by_layer["(outside spans)"] += n

    # -------------------------------------------------------- wrapping

    def wrap(self, fn, name: str, layer: str, on_result=None):
        """Span-recording wrapper; ``on_result(result, args, span)`` post-processes."""
        from ptqgt.errors import PtqgtError

        tracer = self
        nid = self._nid(name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except PtqgtError:
                tracer._refused(idx, layer)
                raise
            finally:
                tracer._close(idx)
            if on_result is not None:
                result = on_result(result, args, idx)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _wrap_family(self, family, layer: str):
        evaluate = family.evaluate
        if getattr(evaluate, "__perfbench_wrapped__", None) is not None:
            return family
        return dataclasses.replace(
            family, evaluate=self.wrap(evaluate, f"{layer}.evaluate", layer))

    def _result_hook(self, layer: str, attr: str):
        from ptqgt.biortho import HamiltonianFamily

        if layer in _FAMILY_LAYERS:
            def hook(result, args, span):
                if isinstance(result, HamiltonianFamily):
                    return self._wrap_family(result, layer)
                return result
            return hook
        if (layer, attr) == ("scan", "run_scan"):
            def hook(result, args, span):
                self.counts["scan.points"] += len(result.records)
                for rec in result.records:
                    if rec.unbroken:
                        self.scan_unbroken += 1
                        self.scan_ok += rec.status == "ok"
                return result
            return hook
        if (layer, attr) == ("scan", "write_csv"):
            def hook(result, args, span):
                self.counts["scan.csv_bytes"] += os.path.getsize(args[1])
                return result
            return hook
        if (layer, attr) == ("geometry", "qgt"):
            def hook(result, args, span):
                self.qgt_dims.append((span, args[0].dim_param))
                return result
            return hook
        if (layer, attr) == ("dynamics", "evolve"):
            def hook(result, args, span):
                self.counts["dynamics.steps"] += len(result.times) - 1
                return result
            return hook
        return None

    def install(self) -> None:
        """Wrap each layer's public functions and every binding of them."""
        import numpy.linalg
        import scipy.linalg

        for layer in LAYERS:
            mod = importlib.import_module(f"ptqgt.{layer}")
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    self._wrappers[val] = self.wrap(
                        val, f"{layer}.{attr}", layer, self._result_hook(layer, attr))
        for mod in self._ptqgt_modules():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in self._wrappers:
                    self._rebind(mod, attr, self._wrappers[val])
        for mod in (numpy.linalg, scipy.linalg):
            self._rebind(mod, "eig", self._eig_counter(mod.eig))

    def _eig_counter(self, eig):
        tracer = self

        @functools.wraps(eig)
        def counted(a, *args, **kwargs):
            if tracer.active:
                tracer._count_eig(a)
            return eig(a, *args, **kwargs)

        return counted

    def _rebind(self, mod, attr, value) -> None:
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    @staticmethod
    def _ptqgt_modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "ptqgt" or name.startswith("ptqgt."))]

    def unwrapped_bindings(self) -> list[str]:
        """Module attributes still bound to an original (unwrapped) function."""
        missed = []
        for mod in self._ptqgt_modules():
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val in self._wrappers:
                    missed.append(f"{mod.__name__}.{attr}")
        return missed

    def uninstall(self) -> None:
        self.active = False
        while self._restore:
            mod, attr, value = self._restore.pop()
            setattr(mod, attr, value)

    # -------------------------------------------------------- summaries

    def write(self, path: str) -> None:
        """Write all spans as a compressed ``.npz`` of parallel columns."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            eig=np.frombuffer(self.eig, dtype=np.int64),
        )
