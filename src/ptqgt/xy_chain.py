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
from .biortho import (BiorthoEigensystem, HamiltonianFamily, _check_integer, _per_stack,
                      biortho_eig)
from .errors import CaseUnsupported, DefectiveMatrix, Degenerate, GaplessPoint

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
    """Field strength (h, eta); the parameter point lambda = (h, eta). Both
    finite."""

    h: float
    eta: float

    def __post_init__(self):
        if not all(-np.inf < c < np.inf for c in (self.h, self.eta)):
            raise ValueError("field strengths h and eta must be finite")

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

# U = diag(1, i, 1, i) makes D_k real: U^dag D_k U multiplies entry (i, j)
# by _ROTATE[i, j] = conj(u_i) u_j, which is 1 or +-i, so the change is
# exact. _DERIVS_U holds U^dag _DH U and U^dag _DETA U, which are real.
_U = np.array([1, 1j, 1, 1j])
_ROTATE = np.outer(_U.conj(), _U)
_DERIVS_U = (np.stack([_DH, _DETA]) * _ROTATE).real
# dk_blocks rotates the real blocks back one part at a time, entry (i, j)
# times conj(_ROTATE[i, j]). Adding _ZERO_RE and _ZERO_IM gives each zero
# part the sign D_k's entries have always had (adding -0.0 keeps a zero's
# sign, adding +0.0 clears it): +0 for the imaginary part of a real entry
# and the real part of an entry +-i x, except i (Js_k +- eta) at (1, 2) and
# (3, 0), whose real part 0 x takes the sign of x.
_ZERO_RE = np.where(_ROTATE.imag == 0, -0.0, 0.0)
_ZERO_RE[[1, 3], [2, 0]] = -0.0
_ZERO_IM = np.where(_ROTATE.imag == 0, 0.0, -0.0)


def _dk_u(p: XYParams, h, eta, ks) -> np.ndarray:
    """U^dag D_k U, the real form of the momentum blocks, at each field
    point and node, shape (P, K, 4, 4): the one place D_k's entries are
    written. The kernel solves it; ``dk_blocks`` rotates it back.
    """
    ks = np.asarray(ks, dtype=float)
    if not np.all((0.0 < ks) & (ks < np.pi / 2)):
        raise ValueError("k must lie in the open interval (0, pi/2)")
    jc, gs, gc, js = 2.0 * p.J, 2.0 * p.Gamma, 2.0 * p.Gammas, 2.0 * p.Js
    cos_part = np.array([[jc, 0, -gc, 0], [0, -jc, 0, gc], [-gc, 0, jc, 0], [0, gc, 0, -jc]])
    sin_part = np.array([[0, -gs, 0, js], [-gs, 0, js, 0], [0, js, 0, -gs], [js, 0, -gs, 0]])
    h = np.asarray(h, dtype=float)[:, None, None, None]
    eta = np.asarray(eta, dtype=float)[:, None, None, None]
    field = h * _DERIVS_U[0] + eta * _DERIVS_U[1]  # (P, 1, 4, 4), each entry +-h, +-eta or 0
    return np.cos(ks)[:, None, None] * cos_part + np.sin(ks)[:, None, None] * sin_part + field


def dk_blocks(p: XYParams, h, eta, ks) -> np.ndarray:
    """Momentum blocks D_k at each field point and node, shape (P, K, 4, 4).

    ``h`` and ``eta`` hold the P field points, ``ks`` the K momenta, each
    in the open interval (0, pi/2). Each block anticommutes with
    I_2 x sigma_x, so its spectrum is symmetric about zero.
    """
    real = _dk_u(p, h, eta, ks)
    out = np.empty(real.shape, dtype=complex)
    np.add(real * _ROTATE.real, _ZERO_RE, out=out.real)
    np.add(real * -_ROTATE.imag, _ZERO_IM, out=out.imag)
    return out


def dk_matrix(p: XYParams, f: FieldPoint, k: float) -> np.ndarray:
    """Momentum block D_k for 0 < k < pi/2; one block of ``dk_blocks``."""
    return dk_blocks(p, [f.h], [f.eta], [k])[0, 0]


def dk_family(p: XYParams, k: float) -> HamiltonianFamily:
    """D_k as a family over lambda = (h, eta), with analytic derivatives."""

    def evaluate(lam):
        return dk_blocks(p, lam[:, 0], lam[:, 1], [k])[:, 0]

    def derivative(lam, mu):
        return np.broadcast_to(_DH if mu == 0 else _DETA, (len(lam), 4, 4))

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
    gapless, tol = _zero_levels(e.ravel())
    if gapless:
        raise GaplessPoint(f"level within {tol:.2e} of zero energy")
    return [int(i) for i in np.flatnonzero(e < 0)]


def _zero_levels(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether some level of each real spectrum of a stack (..., N) lies
    within 1e-8 of its largest |E| of zero energy, and that cut, (...)."""
    size = np.abs(e)
    tol = 1e-8 * np.maximum(size.max(axis=-1), 1e-300)
    return (size < tol[..., None]).any(axis=-1), tol


@functools.lru_cache(maxsize=None)
def _gl_nodes(n_quad: int):
    """Gauss-Legendre nodes and weights on (0, pi/2), computed once per
    ``n_quad`` and returned read-only, since every caller shares them."""
    x, w = leggauss(n_quad)
    half = np.pi / 4.0
    ks, wts = half * (x + 1.0), half * w
    ks.flags.writeable = wts.flags.writeable = False
    return ks, wts


def _refused_nodes(energies: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes the intensity kernel refuses, from the level-ordered
    energies (P, K, 4) of ``biortho_eig``: masks (P, K) of a complex
    spectrum (|Im E| above 1e-9), a gapless level (|E| below 1e-10) and an
    occupied level within 1e-10 of another, each cut times the point's
    largest |Re E|."""
    e = energies.real
    size = np.abs(e)
    e_scale = np.maximum(size.max(axis=(1, 2)), 1e-300)[:, None, None]
    cut = 1e-10 * e_scale
    gapless = (size < cut).any(axis=-1)
    # The level nearest an occupied one is a neighbour in ascending order,
    # and the lower of the two is occupied.
    rising = np.sort(e, axis=-1)
    crossing = ((rising[..., 1:] - rising[..., :-1] < cut) & (rising[..., :-1] < 0)).any(axis=-1)
    complex_spectrum = (np.abs(energies.imag) > 1e-9 * e_scale).any(axis=-1)
    return complex_spectrum, gapless, crossing


def _intensity_perturbative(p: XYParams, h, eta, n_quad: int) -> np.ndarray:
    """Sum-over-states route at the P field points ``(h[i], eta[i])``,
    shape (P, 2, 2); one stacked eigensolve over every point and node,
    in the basis U where the blocks and their derivatives are real. The
    sum over states is invariant under that change of basis.

    A point is refused at its first offending node, the first such point
    in point order, as the one-point call at that point would refuse it.
    """
    ks, wts = _gl_nodes(n_quad)
    try:
        eig = biortho_eig(_dk_u(p, h, eta, ks))
    except DefectiveMatrix as exc:
        raise Degenerate(f"defective block at a quadrature node: {exc}") from exc

    complex_spectrum, gapless, crossing = _refused_nodes(eig.energies)
    refused = complex_spectrum | gapless | crossing
    if refused.any():  # refuse at the first offending node, in (point, node) order
        point, node = np.argwhere(refused)[0]
        k = ks[node]
        if complex_spectrum[point, node]:
            raise Degenerate(f"complex block spectrum at k = {k:.6f}")
        if gapless[point, node]:
            raise GaplessPoint(f"gap closes at quadrature node k = {k:.6f}")
        raise Degenerate(f"level crossing at quadrature node k = {k:.6f}")

    g = geometry._sos_qgt(eig, _DERIVS_U, eig.energies.real < 0).real
    # factor 2: the intensity integrand is twice the per-mode metric in
    # the 1/2-prefactor convention. One reduction per point keeps each
    # point's sum in the order of the one-point call.
    return np.stack([np.einsum("i,iab->ab", 2.0 * wts, gi) for gi in g]) / (4.0 * np.pi)


def _intensity_fd(p: XYParams, f: FieldPoint, n_quad: int) -> np.ndarray:
    """Finite-difference route: the 5-point stencils of up to 102 nodes, as
    many as the stack budget holds, in one stack. Each stack is checked as
    a whole with the cuts of ``occupied_levels`` and ``_check_gap``, which
    then refuse its first offending node; its terms are added in node order."""
    ks, wts = _gl_nodes(n_quad)
    total = np.zeros((2, 2))
    lam = np.array([f.h, f.eta])
    chunk = _per_stack(2 * lam.size + 1)
    for lo in range(0, n_quad, chunk):
        eig, dp = geometry._projector_derivatives(
            lambda points: dk_blocks(p, points[:, 0], points[:, 1], ks[lo:lo + chunk]),
            lam, _FD_STEP)
        e = eig.energies  # (K, 4)
        occupied = e.real < 0
        gaps, gap_cut = geometry._level_gaps(e, range(4))
        narrow = occupied & (np.stack(gaps, axis=-1) < gap_cut[:, None])
        refused = _zero_levels(e.real)[0] | narrow.any(axis=-1)
        if refused.any():  # the per-node checks raise at the first refused node
            i = np.argmax(refused)
            geometry._check_gap(eig[i], occupied_levels(eig[i]))
        # -0.0 is the addend that changes no sum; the running sum adds the
        # nodes' terms in order, as one node at a time would
        levels = np.where(occupied[..., None, None], geometry._fd_qgt(eig, dp).real, -0.0)
        terms = wts[lo:lo + chunk, None, None] * 2.0 * levels.sum(axis=1)
        total = np.cumsum(np.concatenate([total[None], terms]), axis=0)[-1]
    return total / (4.0 * np.pi)


def metric_intensity(
    p: XYParams,
    f: FieldPoint,
    n_quad: int = 129,
    method: str = "perturbative",
) -> np.ndarray:
    """Thermodynamic-limit metric intensity g-bar at a field point.

    Gauss-Legendre quadrature on (0, pi/2) of the per-mode metric summed
    over occupied levels, prefactor 1/(4 pi). ``method`` selects the
    sum-over-states route ('perturbative', default: analytic dH, one
    stacked eigensolve over all nodes; this is the one-point case of the
    kernel a scan row runs on chunks of points, so both give the same
    bits) or the finite-difference route ('fd', qgt's projector
    differences at step 1e-6 with every node's stencil in stacks, used for
    cross-validation). Raises ValueError unless ``n_quad`` is an integer of
    at least 2.
    """
    _check_integer(n_quad, "n_quad")
    if n_quad < 2:
        raise ValueError("n_quad must be at least 2")
    if method == "perturbative":
        return _intensity_perturbative(p, [f.h], [f.eta], n_quad)[0]
    if method == "fd":
        return _intensity_fd(p, f, n_quad)
    raise ValueError(f"unknown method {method!r}")
