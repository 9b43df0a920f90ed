"""Dimerized XY chain in an alternating complex field, momentum-block form.

The many-body chain reduces (Jordan-Wigner + Fourier) to independent
4x4 blocks D_k over 0 < k < pi/2. This module provides the blocks, the
closed-form dispersion, the analytic unbroken/critical structure, and
the thermodynamic-limit metric intensity as a momentum integral over
the occupied (negative-energy) levels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import geometry
from .biortho import BiorthoEigensystem, HamiltonianFamily, biortho_eig
from .errors import (
    CaseUnsupported,
    DefectiveMatrix,
    Degenerate,
    GaplessPoint,
    QuadratureUnconverged,
)

__all__ = [
    "XYParams",
    "FieldPoint",
    "CriticalSet",
    "Dispersion",
    "dk_blocks",
    "dk_matrix",
    "dk_family",
    "dispersion",
    "unbroken_at",
    "critical_set",
    "occupied_levels",
    "metric_intensity",
]

_CASE_TOL = 1e-12
# FD intensity step: its O(step^2) error, which grows toward |eta| = eta_c
# where g22 diverges, stays below 1e-7 relative up to 0.9975 eta_c.
_FD_STEP = 1e-6


@dataclass(frozen=True)
class XYParams:
    """Coupling constants: homogeneous/staggered isotropic (J, Js) and
    anisotropic (Gamma, Gammas) strengths. All finite and strictly positive."""

    J: float
    Js: float
    Gamma: float
    Gammas: float

    def __post_init__(self):
        if not all(0.0 < c < np.inf for c in (self.J, self.Js, self.Gamma, self.Gammas)):
            raise ValueError("all coupling constants must be finite and strictly positive")

    @property
    def case(self) -> str:
        if abs(self.J * self.Gamma - self.Js * self.Gammas) <= _CASE_TOL:
            return "pseudo_isotropic"
        return "anisotropic"

    def check_analytic_case(self):
        """The closed-form critical structure needs either the
        pseudo-isotropic case or the balanced anisotropic one."""
        if self.case == "anisotropic":
            if abs(self.J * self.Gammas - self.Js * self.Gamma) > _CASE_TOL:
                raise CaseUnsupported(
                    "anisotropic case requires J*Gammas == Js*Gamma for the "
                    "analytic critical-field formulas"
                )
            if not (self.J > self.Gammas and self.Js > self.Gamma):
                raise CaseUnsupported("need J > Gammas and Js > Gamma")

    @property
    def eta_c(self) -> float:
        return 2.0 * min(self.J, self.Js)


@dataclass(frozen=True)
class FieldPoint:
    """Field strength (h, eta); the parameter point lambda = (h, eta)."""

    h: float
    eta: float

    @property
    def r(self) -> float:
        return float(np.hypot(self.h, self.eta))


@dataclass(frozen=True)
class CriticalSet:
    r_c1: float
    r_c2: float
    eta_c: float
    case: str
    qpt_description: str


@dataclass(frozen=True)
class Dispersion:
    lambda_plus: complex
    lambda_minus: complex
    c2: float
    c4: float


def dk_blocks(p: XYParams, h, eta, ks) -> np.ndarray:
    """Momentum blocks D_k at each field point and node, shape (P, K, 4, 4).

    ``h`` and ``eta`` hold the P field points, ``ks`` the K momenta, each
    in the open interval (0, pi/2). Each block anticommutes with
    I_2 x sigma_x, so its spectrum is symmetric about zero.
    """
    ks = np.asarray(ks, dtype=float)
    if not np.all((0.0 < ks) & (ks < np.pi / 2)):
        raise ValueError("k must lie in the open interval (0, pi/2)")
    jc = 2.0 * p.J * np.cos(ks)
    gs = 2.0 * p.Gamma * np.sin(ks)
    gc = 2.0 * p.Gammas * np.cos(ks)
    js = 2.0 * p.Js * np.sin(ks)
    h = np.asarray(h, dtype=float)[:, None]
    eta = np.asarray(eta, dtype=float)[:, None]
    entries = (
        (jc + h, 1j * gs, -gc, -1j * (js + eta)),
        (-1j * gs, -jc - h, 1j * (js + eta), gc),
        (-gc, -1j * (js - eta), jc - h, 1j * gs),
        (1j * (js - eta), gc, -1j * gs, -jc + h),
    )
    out = np.empty((h.shape[0], ks.size, 4, 4), dtype=complex)
    for i, row in enumerate(entries):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def dk_matrix(p: XYParams, f: FieldPoint, k: float) -> np.ndarray:
    """Momentum block D_k for 0 < k < pi/2; one block of ``dk_blocks``."""
    return dk_blocks(p, [f.h], [f.eta], [k])[0, 0]


_DH = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
_DETA = np.array(
    [
        [0, 0, 0, -1j],
        [0, 0, 1j, 0],
        [0, 1j, 0, 0],
        [-1j, 0, 0, 0],
    ],
    dtype=complex,
)


def dk_family(p: XYParams, k: float) -> HamiltonianFamily:
    """D_k as a family over lambda = (h, eta), with analytic derivatives."""

    def evaluate(lam):
        return dk_blocks(p, lam[:, 0], lam[:, 1], [k])[:, 0]

    def derivative(lam, mu):
        return _DH if mu == 0 else _DETA

    return HamiltonianFamily(
        dim_hilbert=4, dim_param=2, evaluate=evaluate, derivative=derivative,
        batched=True,
    )


def _c2_c4(p: XYParams, h, eta, k):
    cos2 = np.cos(k) ** 2
    sin2 = np.sin(k) ** 2
    c2 = (
        h**2
        - eta**2
        + 4.0 * (p.J**2 + p.Gammas**2) * cos2
        + 4.0 * (p.Js**2 + p.Gamma**2) * sin2
    )
    c4 = (
        h**2
        + eta**2
        - 4.0 * (p.J**2 - p.Gammas**2) * cos2
        - 4.0 * (p.Js**2 - p.Gamma**2) * sin2
    ) ** 2 + 16.0 * (p.J * p.Gamma - p.Js * p.Gammas) ** 2 * np.sin(2.0 * k) ** 2
    return c2, c4


def dispersion(p: XYParams, f: FieldPoint, k: float) -> Dispersion:
    """Closed-form single-particle energies Lambda_+-(k).

    Real when c2 >= 0 and c2^2 >= c4 (unbroken regime); complex values
    signal PT breaking at this momentum.
    """
    if not 0.0 < k < np.pi / 2:
        raise ValueError("k must lie in the open interval (0, pi/2)")
    c2, c4 = _c2_c4(p, f.h, f.eta, k)
    root = np.sqrt(complex(c2**2 - c4))
    lp = np.sqrt(c2 + root)
    lm = np.sqrt(c2 - root)
    return Dispersion(
        lambda_plus=complex(lp), lambda_minus=complex(lm), c2=float(c2), c4=float(c4)
    )


def unbroken_at(p: XYParams, f: FieldPoint) -> dict:
    """PT-unbroken verdicts: analytic |eta| < eta_c and a 256-momentum scan."""
    p.check_analytic_case()
    analytic = abs(f.eta) < p.eta_c
    ks = (np.arange(256) + 0.5) * (np.pi / 2) / 256
    c2, c4 = _c2_c4(p, f.h, f.eta, ks)
    numeric = bool(np.all(c2**2 - c4 > 0) and np.all(c2 > 0))
    return {"analytic": analytic, "numeric": numeric}


def critical_set(p: XYParams) -> CriticalSet:
    """Closed-form critical fields and the locus of QPT points."""
    p.check_analytic_case()
    r_c1 = 2.0 * np.sqrt(p.J**2 - p.Gammas**2)
    r_c2 = 2.0 * np.sqrt(p.Js**2 - p.Gamma**2)
    if p.case == "anisotropic":
        desc = (
            f"QPT points on the circles r = r_c1 = {r_c1:.6g} and "
            f"r = r_c2 = {r_c2:.6g}; PT breaking at |eta| = {p.eta_c:.6g}"
        )
    else:
        lo, hi = sorted((r_c1, r_c2))
        desc = (
            f"QPT points fill the annulus {lo:.6g} <= r <= {hi:.6g}; "
            f"PT breaking at |eta| = {p.eta_c:.6g}"
        )
    return CriticalSet(
        r_c1=float(r_c1),
        r_c2=float(r_c2),
        eta_c=p.eta_c,
        case=p.case,
        qpt_description=desc,
    )


def occupied_levels(eig: BiorthoEigensystem) -> list[int]:
    """Indices of negative-energy levels (the ground-state occupation).

    Raises GaplessPoint when some |E| is below 1e-8 of the largest |E|.
    """
    e = eig.energies.real
    tol = 1e-8 * max(float(np.max(np.abs(e))), 1e-300)
    if np.any(np.abs(e) < tol):
        raise GaplessPoint(f"level within {tol:.2e} of zero energy")
    return [int(i) for i in np.flatnonzero(e < 0)]


@functools.lru_cache(maxsize=None)
def _gl_nodes(n_quad: int):
    """Gauss-Legendre nodes and weights on (0, pi/2), computed once per
    ``n_quad`` and returned read-only, since every caller shares them."""
    x, w = leggauss(n_quad)
    half = np.pi / 4.0
    ks, wts = half * (x + 1.0), half * w
    ks.flags.writeable = wts.flags.writeable = False
    return ks, wts


def _intensity_perturbative(p: XYParams, h, eta, n_quad: int) -> np.ndarray:
    """Sum-over-states route at the P field points ``(h[i], eta[i])``,
    shape (P, 2, 2); one stacked eigensolve over every point and node.

    A point is refused at its first offending node, the first such point
    in point order, as the one-point call at that point would refuse it.
    """
    ks, wts = _gl_nodes(n_quad)
    try:
        eig = biortho_eig(dk_blocks(p, h, eta, ks))
    except DefectiveMatrix as exc:
        raise Degenerate(f"defective block at a quadrature node: {exc}") from exc

    e = eig.energies.real  # (P, K, 4)
    e_scale = np.maximum(np.abs(e).max(axis=(1, 2)), 1e-300)[:, None, None]
    occupied = e < 0
    gaps = np.abs(e[..., :, None] - e[..., None, :]) + np.diag(np.full(4, np.inf))
    complex_spectrum = np.any(np.abs(eig.energies.imag) > 1e-9 * e_scale, axis=-1)
    gapless = np.any(np.abs(e) < 1e-10 * e_scale, axis=-1)
    crossing = np.any(occupied[..., :, None] & (gaps < 1e-10 * e_scale[..., None]),
                      axis=(-2, -1))
    bad = np.argwhere(complex_spectrum | gapless | crossing)
    if bad.size:  # refuse at the first offending node, in (point, node) order
        point, node = bad[0]
        k = ks[node]
        if complex_spectrum[point, node]:
            raise Degenerate(f"complex block spectrum at k = {k:.6f}")
        if gapless[point, node]:
            raise GaplessPoint(f"gap closes at quadrature node k = {k:.6f}")
        raise Degenerate(f"level crossing at quadrature node k = {k:.6f}")

    g = geometry._sos_qgt(eig, np.stack([_DH, _DETA]), occupied).real
    # factor 2: the intensity integrand is twice the per-mode metric in
    # the 1/2-prefactor convention. One reduction per point keeps each
    # point's sum in the order of the one-point call.
    return np.stack([np.einsum("i,iab->ab", 2.0 * wts, gi) for gi in g]) / (4.0 * np.pi)


def _intensity_fd(p: XYParams, f: FieldPoint, n_quad: int) -> np.ndarray:
    ks, wts = _gl_nodes(n_quad)
    total = np.zeros((2, 2))
    lam = np.array([f.h, f.eta])
    for k, w in zip(ks, wts):
        bundle = geometry.param_derivatives(dk_family(p, k), lam, _FD_STEP)
        occ = occupied_levels(bundle.eig)
        for n in occ:
            geometry._check_gap(bundle.eig, n)
        q = geometry._fd_qgt(bundle.eig.right, bundle.eig.left, bundle.dpsi, bundle.dphi)
        total += w * 2.0 * q[occ].real.sum(axis=0)
    return total / (4.0 * np.pi)


def metric_intensity(
    p: XYParams,
    f: FieldPoint,
    n_quad: int = 129,
    method: str = "perturbative",
    check_convergence: bool = False,
) -> np.ndarray:
    """Thermodynamic-limit metric intensity g-bar at a field point.

    Gauss-Legendre quadrature on (0, pi/2) of the per-mode metric summed
    over occupied levels, prefactor 1/(4 pi). ``method`` selects the
    sum-over-states route ('perturbative', default: analytic dH, one
    stacked eigensolve over all nodes; this is the one-point case of the
    kernel a scan row runs on chunks of points, so both give the same
    bits) or the finite-difference route ('fd', the generic geometry
    pipeline with step 1e-6, used for cross-validation).

    With ``check_convergence`` the quadrature is repeated at 2*n_quad and
    QuadratureUnconverged is raised if any entry moves by more than 1e-4
    relative.
    """
    if n_quad < 2:
        raise ValueError("n_quad must be at least 2")
    if method == "perturbative":
        compute = lambda nq: _intensity_perturbative(p, [f.h], [f.eta], nq)[0]
    elif method == "fd":
        compute = lambda nq: _intensity_fd(p, f, nq)
    else:
        raise ValueError(f"unknown method {method!r}")
    g = compute(n_quad)
    if check_convergence:
        g2 = compute(2 * n_quad)
        denom = max(float(np.max(np.abs(g))), 1e-300)
        if float(np.max(np.abs(g2 - g))) > 1e-4 * denom:
            raise QuadratureUnconverged(
                f"quadrature not converged at n_quad = {n_quad}"
            )
        g = g2
    return g
