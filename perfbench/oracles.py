"""Reference values computed without the ptqgt code paths under test.

The biorthogonal sum-over-states (SOS) tensor here is ROADMAP item 2's
formula, written out with numpy's eigensolver and an explicit inverse
for the left vectors; the XY-chain blocks and the Gauss-Legendre nodes
are rebuilt from their definitions (scipy's ``roots_legendre`` rather
than numpy's ``leggauss``). Tolerances are the pinned ones of the
package's own checks, quoted where they are used.
"""

from __future__ import annotations

import numpy as np

# perturbative_vs_fd_metric tolerance in ptqgt.verify.
TOL_SOS_VS_FD = 1e-6
# hermitian_limit_reduction tolerance in ptqgt.verify.
TOL_HERMITIAN = 1e-8
# q_hermitian_structure / gauge_invariance / metric_intertwining tolerance.
TOL_EXACT = 1e-9
# Criterion 5 and 6 gates (tests/test_acceptance.py).
STOKES_MAX_RESIDUAL = 1e-4
STOKES_MIN_IMPROVEMENT = 2.5
TRANSPORT_MAX_DRIFT = 1e-8
TRANSPORT_MAX_PHASE_GAP = 1e-2
# xy_scan against the values recorded for the default seed.
TOL_REFERENCE = 1e-12

# pt_two_level: H = s sx + i a sy + i b sz over lam = (a, s), b = 0.3.
PT_B = 0.3
PT_DH = (np.array([[0, 1], [-1, 0]], dtype=complex),
         np.array([[0, 1], [1, 0]], dtype=complex))


def rel_err(value, ref) -> float:
    """max |value - ref| over the Frobenius norm of ref."""
    value = np.asarray(value)
    ref = np.asarray(ref)
    return float(np.max(np.abs(value - ref)) / max(float(np.linalg.norm(ref)), 1e-300))


def _sorted_biortho(h):
    """Eigenvalues sorted by (Re, Im), right vectors, and rows <Phi_n|."""
    e, vr = np.linalg.eig(h)
    order = np.lexsort((e.imag, e.real), axis=-1)
    e = np.take_along_axis(e, order, axis=-1)
    vr = np.take_along_axis(vr, order[..., None, :], axis=-1)
    return e, vr, np.linalg.inv(vr)


def sos_qgt(h, dh, n: int) -> np.ndarray:
    """Q_n = 1/2 sum_{m!=n} [A_mu[n,m] A_nu[m,n] + conj(A_mu[m,n] A_nu[n,m])]
    / (E_n - E_m)^2 with A_mu = Phi^dag dH_mu Psi."""
    e, vr, vl = _sorted_biortho(np.asarray(h, dtype=complex))
    amps = [vl @ np.asarray(d, dtype=complex) @ vr for d in dh]
    dim = len(amps)
    q = np.zeros((dim, dim), dtype=complex)
    for m in range(e.shape[0]):
        if m == n:
            continue
        inv_gap2 = 1.0 / (e[n] - e[m]) ** 2
        for mu in range(dim):
            for nu in range(dim):
                q[mu, nu] += 0.5 * inv_gap2 * (
                    amps[mu][n, m] * amps[nu][m, n]
                    + np.conj(amps[mu][m, n] * amps[nu][n, m]))
    return q


def pt_two_level_matrix(lam) -> np.ndarray:
    a, s = lam
    return np.array([[1j * PT_B, s + a], [s - a, -1j * PT_B]], dtype=complex)


def pt_two_level_qgt(lam, n: int = 0) -> np.ndarray:
    return sos_qgt(pt_two_level_matrix(lam), PT_DH, n)


def pt_ep_distance(lam) -> float:
    """s^2 - a^2 - b^2: positive in the unbroken phase, zero on the EP circle."""
    a, s = lam
    return s * s - a * a - PT_B * PT_B


# ------------------------------------------------------------- XY chain

_XY_DH = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
_XY_DETA = np.array([[0, 0, 0, -1j], [0, 0, 1j, 0], [0, 1j, 0, 0], [-1j, 0, 0, 0]],
                    dtype=complex)


def xy_blocks(params, h: float, eta: float, ks) -> np.ndarray:
    """Stacked 4x4 momentum blocks D_k of the dimerized XY chain."""
    ks = np.asarray(ks, dtype=float)
    jc = 2.0 * params.J * np.cos(ks)
    gs = 2.0 * params.Gamma * np.sin(ks)
    gc = 2.0 * params.Gammas * np.cos(ks)
    js = 2.0 * params.Js * np.sin(ks)
    d = np.zeros(ks.shape + (4, 4), dtype=complex)
    d[:, 0, 0] = jc + h
    d[:, 0, 1] = 1j * gs
    d[:, 0, 2] = -gc
    d[:, 0, 3] = -1j * (js + eta)
    d[:, 1, 0] = -1j * gs
    d[:, 1, 1] = -jc - h
    d[:, 1, 2] = 1j * (js + eta)
    d[:, 1, 3] = gc
    d[:, 2, 0] = -gc
    d[:, 2, 1] = -1j * (js - eta)
    d[:, 2, 2] = jc - h
    d[:, 2, 3] = 1j * gs
    d[:, 3, 0] = 1j * (js - eta)
    d[:, 3, 1] = gc
    d[:, 3, 2] = -1j * gs
    d[:, 3, 3] = -jc + h
    return d


class NearCritical(Exception):
    """The oracle itself finds the point ill-posed (gapless or complex)."""


def xy_intensity(params, h: float, eta: float, n_quad: int) -> np.ndarray:
    """Metric intensity (1/4pi) int_0^{pi/2} dk sum_{occ} 2 Re Q_n(k)."""
    from scipy.special import roots_legendre

    x, w = roots_legendre(n_quad)
    ks = np.pi / 4.0 * (x + 1.0)
    wts = np.pi / 4.0 * w
    e, vr, vl = _sorted_biortho(xy_blocks(params, h, eta, ks))
    scale = float(np.max(np.abs(e.real)))
    if np.any(np.abs(e.imag) > 1e-9 * scale):
        raise NearCritical("complex block spectrum")
    er = e.real
    if np.any(np.abs(er) < 1e-10 * scale):
        raise NearCritical("level at zero energy")
    amps = np.stack([vl @ _XY_DH @ vr, vl @ _XY_DETA @ vr])  # (mu, node, m, l)
    gaps = er[:, :, None] - er[:, None, :]
    off = ~np.eye(4, dtype=bool)
    if np.any(np.abs(gaps[:, off]) < 1e-10 * scale):
        raise NearCritical("level crossing")
    gaps[:, ~off] = np.inf
    occ = (er < 0)[:, :, None]
    weight = np.where(occ, 1.0 / gaps ** 2, 0.0)  # (node, n, m)
    swapped = np.swapaxes(amps, -1, -2)
    # per mode 2 g_n = sum_m Re[A_mu[n,m] A_nu[m,n] + A_mu[m,n] A_nu[n,m]] / gap^2
    z = (np.einsum("aink,bikn->abink", amps, amps)
         + np.einsum("aink,bikn->abink", swapped, swapped))
    total = np.einsum("i,abink,ink->ab", wts, z.real, weight)
    return total / (4.0 * np.pi)
