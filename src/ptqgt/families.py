"""Built-in Hamiltonian families used by the demos and the verify suite."""

from __future__ import annotations

from importlib import resources

import numpy as np

from .biortho import HamiltonianFamily
from .modelfile import parse_model

__all__ = [
    "spin_half_family",
    "pt_two_level_family",
    "bundled_model_path",
    "load_bundled_model",
]

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_PT_DERIVS = (np.array([[0, 1], [-1, 0]], dtype=complex), _SX)  # d/da, d/ds
_PT_TILT = 0.3  # the 0.3i*sz of pt_two_level.model


def spin_half_family() -> HamiltonianFamily:
    """H(lam) = lam1*sx + lam2*sy + lam3*sz with analytic derivatives."""
    paulis = (_SX, _SY, _SZ)

    def evaluate(lam):
        lam = lam[:, :, None, None]
        return lam[:, 0] * _SX + lam[:, 1] * _SY + lam[:, 2] * _SZ

    def derivative(lam, mu):
        return np.broadcast_to(paulis[mu], (len(lam), 2, 2))

    return HamiltonianFamily(dim_hilbert=2, dim_param=3, evaluate=evaluate,
                             derivative=derivative, batched=True)


def pt_two_level_family() -> HamiltonianFamily:
    """Pseudo-Hermitian two-level model H = s*sx + i*a*sy + 0.3i*sz.

    Parameters are lam = (a, s); the spectrum +-sqrt(s^2 - a^2 - 0.09) is
    real for s^2 > a^2 + 0.09, with exceptional points on that circle. The
    constant anti-Hermitian tilt 0.3i*sz makes the biorthogonal Berry
    curvature in the (a, s) plane nonzero. It is the family of the bundled
    ``pt_two_level.model``.
    """

    def evaluate(lam):
        a, s = lam[:, 0], lam[:, 1]
        out = np.empty((len(lam), 2, 2), dtype=complex)
        out[:, 0, 0] = 1j * _PT_TILT
        out[:, 0, 1] = s + a
        out[:, 1, 0] = s - a
        out[:, 1, 1] = -1j * _PT_TILT
        return out

    def derivative(lam, mu):
        return np.broadcast_to(_PT_DERIVS[mu], (len(lam), 2, 2))

    return HamiltonianFamily(dim_hilbert=2, dim_param=2, evaluate=evaluate,
                             derivative=derivative, batched=True)


def bundled_model_path(name: str):
    """Filesystem path of a bundled .model file ('spin_half', 'pt_two_level')."""
    ref = resources.files("ptqgt") / "models" / f"{name}.model"
    return ref


def load_bundled_model(name: str) -> HamiltonianFamily:
    text = bundled_model_path(name).read_text(encoding="utf-8")
    return parse_model(text)
