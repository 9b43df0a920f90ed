"""Machine-speed probe: a fixed reference kernel, timed while the benchmark runs.

On the shared 2-vCPU host this benchmark was written on, the same scan
call took 0.75 s and then 1.30 s a few seconds later, and 40
``metric_intensity`` calls took between 0.36 s and 0.66 s within one
minute. CPU time tracked wall time, so the cores themselves ran slower;
no median over a 20 s run removes that. The probe runs ``kernel`` (Python
bytecode plus small LAPACK calls, the same mix as ptqgt, but none of its
code) every ``INTERVAL_S`` from a SIGALRM handler, and each operation's
time is rescaled by the kernel's speed around it:

    normalised = sum over pieces of length * NOMINAL_S / kernel time nearby

so a time reads as it would at the speed where the kernel takes
``NOMINAL_S``. Probe time inside an operation is not counted.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np
import scipy.linalg

INTERVAL_S = 0.2
NOMINAL_S = 6.6e-3  # kernel time on the reference machine, calm phase
_ITERATIONS_4X4 = 100
_ITERATIONS_2X2 = 64
_BASE = np.linspace(0.1, 1.0, 16)
_PAIRS = [np.array([[0.3 + 0.1j * i, 1.0], [0.5, -0.2 + 0.05j]]) for i in range(8)]
# Bound at import, before a traced run wraps numpy.linalg.eig and
# scipy.linalg.eig to count calls.
_eig = np.linalg.eig
_eig_lr = scipy.linalg.eig
_inv = np.linalg.inv


def kernel() -> float:
    """Fixed work; returns a checksum so nothing is optimised away.

    Two parts: single 4x4 ``eig`` plus ``inv`` (the xy_chain mix), and
    single 2x2 left/right ``scipy.linalg.eig`` with a biorthogonal rescale
    (the biortho mix), which takes about two thirds as long. Over 100 s of
    interleaved transport, flux and intensity ops, adding the second part
    cut the spread of their rescaled times by 5-20 %; between whole runs
    the difference was within the run-to-run noise.
    """
    acc = 0.0
    for i in range(_ITERATIONS_4X4):
        m = (_BASE[i % 16] * np.arange(16.0)).reshape(4, 4) + 1j * np.eye(4)
        e, v = _eig(m)
        order = np.lexsort((e.imag, e.real))
        inv = _inv(v[:, order])
        for k in range(4):
            acc += abs(complex(inv[k, k])) * 0.5 + k
    for i in range(_ITERATIONS_2X2):
        w, vl, vr = _eig_lr(_PAIRS[i % 8], left=True, right=True)
        order = np.lexsort((w.imag, w.real))
        vr = vr[:, order] / np.linalg.norm(vr[:, order], axis=0)
        diag = np.einsum("in,in->n", vl[:, order].conj(), vr)
        acc += abs(complex(diag[0])) + float(np.max(np.abs(w.imag)))
    return acc


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the kernel at fixed intervals while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        kernel()
        self.ends.append(time.perf_counter())

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def normalised(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] would take at the nominal speed,
        probe time excluded. Needs a sample before t0 and after t1."""
        i = bisect.bisect_left(self.starts, t0)  # first probe starting inside
        total = 0.0
        left = t0
        while True:
            right = self.starts[i] if i < len(self.starts) else t1
            piece = min(right, t1) - left
            if piece > 0:
                k = [self.ends[j] - self.starts[j] for j in (i - 1, i)
                     if 0 <= j < len(self.starts)]
                total += piece * NOMINAL_S / (sum(k) / len(k))
            if i >= len(self.starts) or self.starts[i] >= t1:
                return total
            left = self.ends[i]
            i += 1
