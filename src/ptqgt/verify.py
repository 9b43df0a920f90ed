"""Self-verification suite: numerical cross-identities of the geometry.

Every check exercises one of the structural identities the package is
built on (Hermiticity of Q, gauge invariance, perturbative vs
finite-difference metric and Q, variance form, generator decomposition,
fidelity expansion, Hermitian-limit reduction, the real basis of the
intensity kernel, Stokes consistency, adiabatic convergence) and reports
a residual against a pinned tolerance. Tests and the ``ptqgt verify``
command both run these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, xy_chain
from .biortho import HamiltonianFamily, biortho_eig, build_W
from .dynamics import PathSpec, adiabatic_phase
from .families import pt_two_level_family, spin_half_family
from .geometry import LoopSpec, berry_phase_loop, curvature_flux
from .xy_chain import FieldPoint, XYParams, dk_family

__all__ = ["CheckResult", "run_suite", "FAST_CHECKS", "FULL_CHECKS",
           "standard_qgt_oracle", "ANISO", "PSEUDO_ISO"]

ANISO = XYParams(J=1.0, Js=0.5, Gamma=1.0 / 3.0, Gammas=1.0 / 6.0)
PSEUDO_ISO = XYParams(J=1.0, Js=0.5, Gamma=0.25, Gammas=0.5)

# Check sizes: random cases per seeded check (fewer for the fidelity ratio
# test), the coarser Stokes grid, the adiabatic loop times and steps per time.
_TRIALS = 20
_FIDELITY_TRIALS = 10
_STOKES_RESOLUTION = 64
_ADIABATIC_TAUS = (50.0, 100.0, 200.0)
_STEPS_PER_TIME = 60


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def standard_qgt_oracle(family, lam, n=0):
    """Brute-force sum-over-states geometric tensor of a Hermitian family:
    the textbook sum_m <n|dH|m><m|dH|n> / (E_n - E_m)^2 with orthonormal
    eigenvectors from ``eigh``; independent of the biorthogonal pipeline.
    """
    lam = np.asarray(lam, dtype=float)
    e, v = np.linalg.eigh(family(lam))
    d = family.dim_param
    dh = [family.deriv(lam, mu) for mu in range(d)]
    q = np.zeros((d, d), dtype=complex)
    for m in range(len(e)):
        if m == n:
            continue
        amp = [np.vdot(v[:, n], dh[mu] @ v[:, m]) for mu in range(d)]
        amp_back = [np.vdot(v[:, m], dh[mu] @ v[:, n]) for mu in range(d)]
        for mu in range(d):
            for nu in range(d):
                q[mu, nu] += amp[mu] * amp_back[nu] / (e[n] - e[m]) ** 2
    return q


def _random_unbroken_points(rng, params, count):
    pts = []
    crit = xy_chain.critical_set(params)
    radii = sorted({crit.r_c1, crit.r_c2})
    while len(pts) < count:
        h = rng.uniform(0.0, 3.0)
        eta = rng.uniform(-0.9, 0.9)
        r = np.hypot(h, eta)
        if params.case == "pseudo_isotropic":
            lo, hi = radii[0], radii[-1]
            if lo - 0.08 <= r <= hi + 0.08:
                continue
        elif any(abs(r - rc) < 0.08 for rc in radii):
            continue
        pts.append((h, eta))
    return pts


def _random_dk_cases(rng, trials):
    cases = []
    for params in (ANISO, PSEUDO_ISO):
        for h, eta in _random_unbroken_points(rng, params, trials // 2):
            k = rng.uniform(0.15, np.pi / 2 - 0.15)
            cases.append((params, np.array([h, eta]), k))
    return cases


def check_q_structure(seed=42) -> CheckResult:
    """Q Hermitian, Omega antisymmetric, g symmetric."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for params, lam, k in _random_dk_cases(rng, _TRIALS):
        fam = dk_family(params, k)
        q = geometry.qgt(fam, lam, n=0).q
        scale = max(np.linalg.norm(q), 1e-300)
        worst = max(
            worst,
            float(np.max(np.abs(q - q.conj().T))) / scale,
            float(np.max(np.abs(q.imag + q.imag.T))) / scale,
            float(np.max(np.abs(q.real - q.real.T))) / scale,
        )
    return CheckResult("q_hermitian_structure", worst, 1e-9)


def _eigenvector_qgt(psi, phi, dpsi, dphi) -> np.ndarray:
    """Q of every level, (N, d, d), from the eigenvectors and their
    parameter derivatives.

    ``psi`` and ``phi`` are (N, N) with levels as columns; ``dpsi[mu]``
    and ``dphi[mu]`` are their derivatives along direction mu, (d, N, N).
    x[n, mu, nu] = <d_mu Phi_n|d_nu Psi_n> - <d_mu Phi_n|Psi_n><Phi_n|d_nu Psi_n>
    and Q = 1/2 (x + x^dag).
    """
    dphi_h = dphi.conj()
    x = np.einsum("ain,bin->nab", dphi_h, dpsi) - (
        np.einsum("ain,in->na", dphi_h, psi)[:, :, None]
        * np.einsum("in,bin->nb", phi.conj(), dpsi)[:, None, :]
    )
    return 0.5 * (x + np.swapaxes(x, -1, -2).conj())


def check_gauge_invariance(seed=42) -> CheckResult:
    """The eigenvector form of Q is unchanged under smooth per-level
    rescalings f(lam), exactly transformed derivatives included. The
    derivatives are exact, from one eigensolve: d Psi = Psi C_mu and
    d Phi = -Phi C_mu^dag."""
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for params, lam, k in _random_dk_cases(rng, _TRIALS):
        fam = dk_family(params, k)
        eig = biortho_eig(fam(lam))
        resp = geometry._gauged_coefficients(
            eig, np.stack([fam.deriv(lam, mu) for mu in range(2)]))
        dpsi = eig.right @ resp
        dphi = -eig.left @ np.swapaxes(resp.conj(), -1, -2)
        n_dim = fam.dim_hilbert
        # f_n(lam) = f0_n * exp(c_n . (lam - lam0)) with complex c_n:
        # value and gradient at lam0 known in closed form.
        f0 = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
        f0 += 2.0 * np.sign(f0.real)  # keep away from zero
        c = rng.normal(size=(2, n_dim)) + 1j * rng.normal(size=(2, n_dim))
        psi_t = eig.right * f0
        phi_t = eig.left / f0.conj()
        dpsi_t = dpsi * f0 + eig.right * (f0 * c)[:, None, :]
        dphi_t = dphi / f0.conj() - eig.left * (c.conj() / f0.conj())[:, None, :]
        q0 = _eigenvector_qgt(eig.right, eig.left, dpsi, dphi)
        q1 = _eigenvector_qgt(psi_t, phi_t, dpsi_t, dphi_t)
        scale = np.maximum(np.linalg.norm(q0, axis=(1, 2)), 1e-300)
        worst = max(worst, float(np.max(np.max(np.abs(q1 - q0), axis=(1, 2)) / scale)))
    return CheckResult("gauge_invariance", worst, 1e-9)


def check_perturbative_vs_fd(seed=42) -> CheckResult:
    """Sum-over-states ground metric vs Re Q from differencing, step 1e-5."""
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for params, lam, k in _random_dk_cases(rng, _TRIALS):
        fam = dk_family(params, k)
        eig = biortho_eig(fam(lam))
        dh = np.stack([fam.deriv(lam, mu) for mu in range(2)])
        geometry._check_gap(eig, [0])
        g_pert = geometry._sos_qgt(eig, dh, np.arange(4) == 0).real
        g_fd = geometry._fd_qgt(*geometry._projector_derivatives(fam, lam, 1e-5))[0].real
        scale = max(np.linalg.norm(g_pert), 1e-300)
        worst = max(worst, float(np.max(np.abs(g_pert - g_fd))) / scale)
    return CheckResult("perturbative_vs_fd_metric", worst, 1e-6)


def _random_pt_points(rng, count):
    """pt_two_level points in both PT phases, clear of the EP circle
    s^2 = a^2 + 0.09 where the difference route loses its digits."""
    pts = []
    while len(pts) < count:
        a, s = rng.uniform(-0.5, 0.5), rng.uniform(0.0, 1.0)
        if abs(s * s - a * a - 0.09) > 0.05:
            pts.append(np.array([a, s]))
    return pts


def check_sos_vs_fd_qgt(seed=42) -> CheckResult:
    """Complex sum-over-states Q (metric and curvature) vs Q from
    differencing, on D_k blocks and on pt_two_level in both phases."""
    rng = np.random.default_rng(seed + 8)
    cases = [(dk_family(params, k), lam) for params, lam, k in _random_dk_cases(rng, _TRIALS)]
    pt = pt_two_level_family()
    cases += [(pt, lam) for lam in _random_pt_points(rng, _TRIALS // 2)]
    worst = 0.0
    for fam, lam in cases:
        eig = biortho_eig(fam(lam))
        dh = np.stack([fam.deriv(lam, mu) for mu in range(2)])
        q_sos = geometry._sos_qgt(eig, dh, np.arange(fam.dim_hilbert) == 0)
        q_fd = geometry.qgt(fam, lam, n=0).q
        scale = max(np.linalg.norm(q_sos), 1e-300)
        worst = max(worst,
                    float(np.max(np.abs(q_sos.real - q_fd.real))) / scale,
                    float(np.max(np.abs(q_sos.imag - q_fd.imag))) / scale)
    return CheckResult("sos_vs_fd_qgt", worst, 1e-6)


def check_variance_vs_metric(seed=42) -> CheckResult:
    """Variance form of the ground metric vs Re Q."""
    rng = np.random.default_rng(seed + 3)
    worst = 0.0
    for params, lam, k in _random_dk_cases(rng, _TRIALS):
        fam = dk_family(params, k)
        g_var = geometry.variance_metric(fam, lam)
        g_q = geometry.qgt(fam, lam, n=0).q.real
        scale = max(np.linalg.norm(g_q), 1e-300)
        worst = max(worst, float(np.max(np.abs(g_var - g_q))) / scale)
    return CheckResult("variance_vs_metric", worst, 1e-8)


def check_ob_identity(seed=42) -> CheckResult:
    """O_B from the Hermitian-part decomposition of O equals -1/2 W^-1 dW."""
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    for params, lam, k in _random_dk_cases(rng, _TRIALS):
        fam = dk_family(params, k)
        ops = geometry.o_operators(fam, lam)
        w = build_W(biortho_eig(fam(lam)))
        for mu in range(2):
            o = ops.o_full[mu]
            ob_dec = -0.5j * (o - np.linalg.solve(w, o.conj().T @ w))
            scale = max(np.linalg.norm(ops.o_b[mu]), 1.0)
            worst = max(worst, float(np.linalg.norm(ob_dec - ops.o_b[mu])) / scale)
    return CheckResult("o_b_gauge_field_identity", worst, 1e-7)


def check_fidelity_expansion(seed=42) -> CheckResult:
    """2(1-F) matches g_{mu nu} d^mu d^nu with a third-order remainder.

    Ratio test: the remainder must shrink by at least ~2^3 = 8 (allowing
    margin, > 5) when the displacement is halved.
    """
    rng = np.random.default_rng(seed + 5)
    worst_ratio_defect = 0.0
    for params, lam, k in _random_dk_cases(rng, _FIDELITY_TRIALS):
        fam = dk_family(params, k)
        g = geometry.qgt(fam, lam, n=0).q.real
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        eig_a = biortho_eig(fam(lam))

        def remainder(delta):
            eig_b = biortho_eig(fam(lam + delta))
            f = geometry.fidelity(eig_a, eig_b, n=0)
            return abs(2.0 * (1.0 - f) - float(delta @ g @ delta))

        d1 = 1e-3 * direction
        r1, r2 = remainder(d1), remainder(0.5 * d1)
        if r1 < 1e-14:  # remainder at round-off floor; accept
            continue
        ratio = r1 / max(r2, 1e-300)
        worst_ratio_defect = max(worst_ratio_defect, max(0.0, 5.0 - ratio))
    return CheckResult("fidelity_expansion_ratio", worst_ratio_defect, 0.0)


def _hermitian_block_family(params):
    """Hermitian 4x4 family: the eta = 0 momentum block over lam = (h, k).

    Both parameter directions preserve Hermiticity, unlike the eta
    direction of the two-field family.
    """

    def evaluate(lam):
        return xy_chain.dk_matrix(params, FieldPoint(h=lam[0], eta=0.0), lam[1])

    return HamiltonianFamily(dim_hilbert=4, dim_param=2, evaluate=evaluate)


def check_hermitian_reduction(seed=42) -> CheckResult:
    """For families that are Hermitian at every parameter value the
    extended Q equals the standard sum-over-states tensor."""
    rng = np.random.default_rng(seed + 6)
    cases = [(spin_half_family(), lam / np.linalg.norm(lam))
             for lam in rng.normal(size=(_TRIALS // 2, 3))]
    block = _hermitian_block_family(ANISO)
    cases += [(block, np.array([rng.uniform(0.2, 1.4), rng.uniform(0.3, np.pi / 2 - 0.3)]))
              for _ in range(_TRIALS // 2)]
    worst = 0.0
    for fam, lam in cases:
        q = geometry.qgt(fam, lam, n=0).q
        q_ref = standard_qgt_oracle(fam, lam, n=0)
        scale = max(np.linalg.norm(q_ref), 1e-300)
        worst = max(worst, float(np.max(np.abs(q - q_ref))) / scale)
    return CheckResult("hermitian_limit_reduction", worst, 1e-8)


def check_w_identity(seed=42) -> CheckResult:
    """W H = H^dag W and <Psi_m|W|Psi_n> = delta for random blocks."""
    rng = np.random.default_rng(seed + 7)
    worst = 0.0
    for params, lam, k in _random_dk_cases(rng, _TRIALS):
        fam = dk_family(params, k)
        h = fam(lam)
        eig = biortho_eig(h)
        w = build_W(eig)
        scale = max(np.linalg.norm(h) * np.linalg.norm(w), 1e-300)
        worst = max(
            worst,
            float(np.linalg.norm(w @ h - h.conj().T @ w)) / scale,
            float(np.max(np.abs(eig.right.conj().T @ w @ eig.right - np.eye(4)))),
        )
    return CheckResult("metric_intertwining", worst, 1e-9)


def check_real_basis_intensity(seed=42) -> CheckResult:
    """The intensity kernel, which solves U^dag D_k U in real arithmetic,
    against the same sum over states on the complex blocks D_k with the
    paper's dH, at the same quadrature nodes."""
    rng = np.random.default_rng(seed + 9)
    ks, wts = xy_chain._gl_nodes(65)
    dh = np.stack([xy_chain._DH, xy_chain._DETA])
    worst = 0.0
    for params in (ANISO, PSEUDO_ISO):
        h, eta = np.array(_random_unbroken_points(rng, params, _TRIALS // 2)).T
        g = xy_chain._intensity_perturbative(params, h, eta, 65)
        eig = biortho_eig(xy_chain.dk_blocks(params, h, eta, ks))
        q = geometry._sos_qgt(eig, dh, eig.energies.real < 0).real
        g_ref = np.einsum("k,pkab->pab", 2.0 * wts, q) / (4.0 * np.pi)
        scale = np.max(np.abs(g_ref), axis=(1, 2))
        worst = max(worst, float(np.max(np.max(np.abs(g - g_ref), axis=(1, 2)) / scale)))
    return CheckResult("real_basis_intensity", worst, 1e-12)


def check_stokes() -> CheckResult:
    """Boundary Berry phase + enclosed curvature flux vanish, and the
    residual drops ~4x when the grid is refined 2x."""
    fam = pt_two_level_family()
    lo = np.array([0.05, 0.75])
    hi = np.array([0.25, 0.95])
    verts = _rectangle_loop(lo, hi, per_side=192)
    gamma = berry_phase_loop(fam, LoopSpec(vertices=verts, level=0))
    err1 = abs(curvature_flux(fam, lo, hi, (0, 1), _STOKES_RESOLUTION, n=0) + gamma)
    err2 = abs(curvature_flux(fam, lo, hi, (0, 1), 2 * _STOKES_RESOLUTION, n=0) + gamma)
    # encode both requirements: absolute residual and >= 2.5x improvement
    combined = max(err1 / 1e-4, err2 / (err1 / 2.5 + 1e-300))
    return CheckResult("stokes_consistency", combined, 1.0)


def _rectangle_loop(lo, hi, per_side):
    xs = np.linspace(lo[0], hi[0], per_side, endpoint=False)
    ys = np.linspace(lo[1], hi[1], per_side, endpoint=False)
    bottom = np.stack([xs, np.full_like(xs, lo[1])], axis=1)
    right = np.stack([np.full_like(ys, hi[0]), ys], axis=1)
    top = np.stack([np.linspace(hi[0], lo[0], per_side, endpoint=False),
                    np.full(per_side, hi[1])], axis=1)
    left = np.stack([np.full(per_side, lo[0]),
                     np.linspace(hi[1], lo[1], per_side, endpoint=False)], axis=1)
    return np.concatenate([bottom, right, top, left, bottom[:1]], axis=0)


def check_adiabatic() -> CheckResult:
    """|gamma_sim - gamma_line| shrinks monotonically with tau and is
    below 1e-2 at the largest tau."""
    fam = pt_two_level_family()
    center = np.array([0.15, 0.85])
    radius = 0.05
    diffs = []
    for tau in _ADIABATIC_TAUS:
        path = PathSpec(curve=lambda t, _tau=tau: center + radius * np.array(
            [np.cos(2 * np.pi * t / _tau), np.sin(2 * np.pi * t / _tau)]),
            duration=tau, closed=True)
        out = adiabatic_phase(fam, path, n=0, n_steps=int(_STEPS_PER_TIME * tau))
        diffs.append(abs(out["gamma_sim"] - out["gamma_line"]))
    monotone = all(b < a for a, b in zip(diffs, diffs[1:]))
    residual = diffs[-1] if monotone else float("inf")
    return CheckResult("adiabatic_convergence", residual, 1e-2)


FAST_CHECKS = (
    check_q_structure,
    check_gauge_invariance,
    check_perturbative_vs_fd,
    check_sos_vs_fd_qgt,
    check_variance_vs_metric,
    check_ob_identity,
    check_fidelity_expansion,
    check_hermitian_reduction,
    check_w_identity,
    check_real_basis_intensity,
)

_FULL_ONLY_CHECKS = (check_stokes, check_adiabatic)

FULL_CHECKS = FAST_CHECKS + _FULL_ONLY_CHECKS


def run_suite(suite: str = "fast", seed: int = 42) -> list[CheckResult]:
    """Run the ``"fast"`` checks (seeded) or the ``"full"`` set, which adds
    the seed-free Stokes and adiabatic checks."""
    if suite not in ("fast", "full"):
        raise ValueError(f"unknown suite {suite!r}; expected 'fast' or 'full'")
    results = [check(seed) for check in FAST_CHECKS]
    if suite == "full":
        results += [check() for check in _FULL_ONLY_CHECKS]
    return results
