"""Built-in Hamiltonian families used by the demos and the verify suite,
each written once, as a ``.model`` file bundled in ``ptqgt/models``."""

from __future__ import annotations

import functools
from importlib import resources

from .biortho import HamiltonianFamily
from .modelfile import parse_model

__all__ = [
    "spin_half_family",
    "pt_two_level_family",
    "load_bundled_model",
]

BUNDLED_MODELS = ("spin_half", "pt_two_level")  # the names of the bundled .model files


def spin_half_family() -> HamiltonianFamily:
    """H(lam) = lam1*sx + lam2*sy + lam3*sz, the bundled ``spin_half.model``."""
    return load_bundled_model("spin_half")


def pt_two_level_family() -> HamiltonianFamily:
    """Pseudo-Hermitian two-level model H = s*sx + i*a*sy + 0.3i*sz, the
    bundled ``pt_two_level.model``.

    Parameters are lam = (a, s); the spectrum +-sqrt(s^2 - a^2 - 0.09) is
    real for s^2 > a^2 + 0.09, with exceptional points on that circle. The
    constant anti-Hermitian tilt 0.3i*sz makes the biorthogonal Berry
    curvature in the (a, s) plane nonzero.
    """
    return load_bundled_model("pt_two_level")


@functools.cache
def load_bundled_model(name: str) -> HamiltonianFamily:
    """The family of a bundled .model file, one of ``BUNDLED_MODELS``,
    parsed once per process: a family is immutable, so every caller can
    share it."""
    text = (resources.files("ptqgt") / "models" / f"{name}.model").read_text(encoding="utf-8")
    return parse_model(text)
