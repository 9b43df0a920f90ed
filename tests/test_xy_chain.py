import dataclasses

import numpy as np
import pytest

from ptqgt import (
    CaseUnsupported,
    Degenerate,
    FieldPoint,
    GaplessPoint,
    XYParams,
    biortho_eig,
    critical_set,
    dispersion,
    dk_blocks,
    dk_family,
    dk_matrix,
    geometry,
    metric_intensity,
    occupied_levels,
    unbroken_at,
    xy_chain,
)
from ptqgt.xy_chain import (
    _DERIVS_U,
    _DETA,
    _DH,
    _ROTATE,
    _gl_nodes,
    _intensity_perturbative,
)

ANISO = XYParams(J=1.0, Js=0.5, Gamma=1.0 / 3.0, Gammas=1.0 / 6.0)
PSEUDO_ISO = XYParams(J=1.0, Js=0.5, Gamma=0.25, Gammas=0.5)


# --------------------------------------------------------------- params


def test_params_validation_and_case():
    with pytest.raises(ValueError):
        XYParams(J=1.0, Js=0.0, Gamma=0.3, Gammas=0.1)
    for bad_value in (np.nan, np.inf, -np.inf, -1.0):
        for name in ("J", "Js", "Gamma", "Gammas"):
            couplings = {"J": 1.0, "Js": 0.5, "Gamma": 0.3, "Gammas": 0.1, name: bad_value}
            with pytest.raises(ValueError, match="finite and strictly positive"):
                XYParams(**couplings)
    assert ANISO.case == "anisotropic"
    assert PSEUDO_ISO.case == "pseudo_isotropic"
    assert ANISO.eta_c == 1.0
    assert PSEUDO_ISO.eta_c == 1.0
    # anisotropic but unbalanced: no closed-form critical structure
    bad = XYParams(J=1.0, Js=0.5, Gamma=0.3, Gammas=0.1)
    with pytest.raises(CaseUnsupported):
        bad.check_analytic_case()


@pytest.mark.parametrize("h, eta", [(0.5, np.nan), (np.inf, 0.1), (-np.inf, 0.0), (np.nan, np.nan)])
def test_field_point_refuses_non_finite_fields(h, eta):
    # unbroken_at answered False for a NaN eta, dispersion returned NaN and
    # metric_intensity warned before refusing an Inf h
    with pytest.raises(ValueError, match="must be finite"):
        FieldPoint(h=h, eta=eta)


def test_field_point_radius():
    assert abs(FieldPoint(h=3.0, eta=4.0).r - 5.0) < 1e-15


# ------------------------------------------------------------- dk block


def test_dk_matrix_structure():
    f = FieldPoint(h=0.5, eta=0.3)
    d = dk_matrix(ANISO, f, 0.7)
    assert d.shape == (4, 4)
    assert abs(np.trace(d)) < 1e-14
    # anticommutes with I_2 x sigma_x => spectrum symmetric about zero
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    chi = np.kron(np.eye(2), sx)
    assert np.max(np.abs(chi @ d + d @ chi)) < 1e-14
    e = np.sort(np.linalg.eigvals(d).real)
    assert np.max(np.abs(e + e[::-1])) < 1e-10


def test_dk_matrix_hermitian_iff_eta_zero():
    d0 = dk_matrix(ANISO, FieldPoint(h=0.5, eta=0.0), 0.7)
    assert np.max(np.abs(d0 - d0.conj().T)) < 1e-14
    d1 = dk_matrix(ANISO, FieldPoint(h=0.5, eta=0.3), 0.7)
    assert np.max(np.abs(d1 - d1.conj().T)) > 0.1


def test_dk_domain():
    f = FieldPoint(h=0.5, eta=0.3)
    for k in (0.0, np.pi / 2, -0.1, 2.0):
        with pytest.raises(ValueError):
            dk_matrix(ANISO, f, k)


def test_dk_blocks_bitwise_equal_to_dk_matrix():
    rng = np.random.default_rng(5)
    ks, _ = _gl_nodes(65)
    for params in (ANISO, PSEUDO_ISO):
        hs = rng.uniform(0.0, 3.0, 3)
        etas = rng.uniform(-0.95, 0.95, 3)
        blocks = dk_blocks(params, hs, etas, ks)
        assert blocks.shape == (3, 65, 4, 4)
        for i, (h, eta) in enumerate(zip(hs, etas)):
            for j, k in enumerate(ks):
                single = dk_matrix(params, FieldPoint(h=h, eta=eta), k)
                assert blocks[i, j].tobytes() == single.tobytes()  # signed zeros too
    with pytest.raises(ValueError):
        dk_blocks(ANISO, [0.5], [0.3], [0.7, np.pi / 2])


def test_rotated_blocks_and_derivatives_are_exactly_real():
    rng = np.random.default_rng(5)
    for params in (ANISO, PSEUDO_ISO):
        h, eta = rng.uniform(0.0, 3.0, 7), rng.uniform(-1.5, 1.5, 7)  # both PT phases
        ks = rng.uniform(0.01, np.pi / 2 - 0.01, 9)
        assert np.all((dk_blocks(params, h, eta, ks) * _ROTATE).imag == 0)
    assert np.array_equal(np.stack([_DH, _DETA]) * _ROTATE, _DERIVS_U)


def _entrywise_dk_blocks(p, h, eta, ks):
    """D_k written entry by entry as complex numbers, the form the blocks
    had before they were built in the basis U: the reference for their
    bytes, signed zeros included."""
    ks = np.asarray(ks, dtype=float)
    jc, gs = 2.0 * p.J * np.cos(ks), 2.0 * p.Gamma * np.sin(ks)
    gc, js = 2.0 * p.Gammas * np.cos(ks), 2.0 * p.Js * np.sin(ks)
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


def _field_points_where_entries_cancel(p, ks, rng):
    """h = 0, eta = 0 and eta = +-2 Js sin k (where Js_k -+ eta is an exact
    zero) at each node, with h = +-2 J cos k and seeded bulk points."""
    js, jc = 2.0 * p.Js * np.sin(ks), 2.0 * p.J * np.cos(ks)
    hs = np.concatenate([[0.0, -0.0, 0.0, 0.0], np.zeros_like(js), jc, -jc,
                         rng.uniform(-3.0, 3.0, 6)])
    etas = np.concatenate([[0.0, -0.0, 0.5, -0.5], js, -js, js, rng.uniform(-1.5, 1.5, 6)])
    return hs, etas


def test_dk_blocks_keep_the_bytes_of_the_entrywise_blocks():
    rng = np.random.default_rng(8)
    for params in (ANISO, PSEUDO_ISO, XYParams(J=0.7, Js=1.3, Gamma=0.2, Gammas=0.9)):
        ks = np.concatenate([_gl_nodes(24)[0], rng.uniform(1e-6, np.pi / 2 - 1e-6, 4)])
        hs, etas = _field_points_where_entries_cancel(params, ks, rng)
        blocks = dk_blocks(params, hs, etas, ks)
        assert blocks.tobytes() == _entrywise_dk_blocks(params, hs, etas, ks).tobytes()
        for j, k in enumerate(ks):  # eta = 2 Js sin k on that node alone
            f = FieldPoint(h=0.0, eta=2.0 * params.Js * np.sin(k))
            single = _entrywise_dk_blocks(params, [f.h], [f.eta], [k])[0, 0]
            assert dk_matrix(params, f, k).tobytes() == single.tobytes()


def test_real_builder_is_the_rotated_blocks():
    rng = np.random.default_rng(9)
    for params in (ANISO, PSEUDO_ISO):
        ks = _gl_nodes(65)[0]
        hs, etas = _field_points_where_entries_cancel(params, ks, rng)
        real = xy_chain._dk_u(params, hs, etas, ks)
        assert real.dtype == np.float64 and real.flags.c_contiguous
        rotated = np.ascontiguousarray((dk_blocks(params, hs, etas, ks) * _ROTATE).real)
        assert real.tobytes() == rotated.tobytes()
    with pytest.raises(ValueError):
        xy_chain._dk_u(ANISO, [0.5], [0.3], [0.7, np.pi / 2])


def test_gl_nodes_cached_read_only():
    ks, wts = _gl_nodes(65)
    again = _gl_nodes(65)
    assert again[0] is ks and again[1] is wts
    assert np.all((0.0 < ks) & (ks < np.pi / 2))
    assert abs(wts.sum() - np.pi / 2) < 1e-14
    for a in (ks, wts):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_dk_family_analytic_derivatives():
    fam = dk_family(ANISO, 0.7)
    lam = np.array([0.5, 0.3])
    for mu in range(2):
        exact = fam.deriv(lam, mu)
        e = np.zeros(2)
        e[mu] = 1e-6
        fd = (fam(lam + e) - fam(lam - e)) / 2e-6
        assert np.max(np.abs(exact - fd)) < 1e-9


# ----------------------------------------------------------- dispersion


def test_dispersion_closed_form_values():
    # isotropic couplings contribute 4(J^2+Gs^2)cos^2 + 4(Js^2+G^2)sin^2
    d = dispersion(ANISO, FieldPoint(h=1.0, eta=0.0), np.pi / 4)
    c2_expected = 1.0 + 2.0 * (1.0 + 1.0 / 36.0) + 2.0 * (0.25 + 1.0 / 9.0)
    assert abs(d.c2 - c2_expected) < 1e-12
    cross = 16.0 * (ANISO.J * ANISO.Gamma - ANISO.Js * ANISO.Gammas) ** 2
    c4_expected = (1.0 - 2.0 * (1.0 - 1.0 / 36.0) - 2.0 * (0.25 - 1.0 / 9.0)) ** 2 + cross
    assert abs(d.c4 - c4_expected) < 1e-12
    assert d.lambda_plus.imag == 0.0
    assert d.lambda_minus.imag == 0.0
    assert d.lambda_plus.real >= d.lambda_minus.real > 0


def test_dispersion_matches_dense_eigenvalues():
    rng = np.random.default_rng(17)
    ks = (np.arange(16) + 0.5) * (np.pi / 2) / 16
    for params in (ANISO, PSEUDO_ISO):
        for _ in range(4):
            f = FieldPoint(h=rng.uniform(0, 3), eta=rng.uniform(-0.9, 0.9))
            for k in ks:
                d = dispersion(params, f, k)
                expected = np.sort(
                    [
                        -d.lambda_plus.real,
                        -d.lambda_minus.real,
                        d.lambda_minus.real,
                        d.lambda_plus.real,
                    ]
                )
                e = np.sort(np.linalg.eigvals(dk_matrix(params, f, k)).real)
                assert np.max(np.abs(e - expected)) < 1e-10


def test_dispersion_gap_closes_inside_pseudo_isotropic_annulus():
    # pseudo-isotropic case: for r_c2 < h < r_c1 an interior momentum
    # k* with cos^2 k* = (h^2 - r_c2^2)/(r_c1^2 - r_c2^2) becomes gapless
    crit = critical_set(PSEUDO_ISO)
    h = 1.2
    assert crit.r_c2 < h < crit.r_c1
    k_star = np.arccos(
        np.sqrt((h**2 - crit.r_c2**2) / (crit.r_c1**2 - crit.r_c2**2))
    )
    f = FieldPoint(h=h, eta=0.0)
    assert dispersion(PSEUDO_ISO, f, k_star).lambda_minus.real < 1e-10
    ks = np.linspace(1e-4, np.pi / 2 - 1e-4, 4001)
    gaps = [dispersion(PSEUDO_ISO, f, k).lambda_minus.real for k in ks]
    assert min(gaps) < 1e-3
    # well inside the unbroken gapped region the minimum stays away from 0
    f2 = FieldPoint(h=2.5, eta=0.0)
    gaps2 = [dispersion(PSEUDO_ISO, f2, k).lambda_minus.real for k in ks]
    assert min(gaps2) > 0.5


def test_dispersion_complex_when_broken():
    # beyond eta_c some momentum (not necessarily all) turns complex
    ks = np.linspace(1e-3, np.pi / 2 - 1e-3, 801)
    broken = [
        abs(dispersion(ANISO, FieldPoint(h=0.1, eta=1.2), k).lambda_minus.imag)
        for k in ks
    ]
    assert max(broken) > 1e-3
    unbroken = [
        abs(dispersion(ANISO, FieldPoint(h=0.1, eta=0.9), k).lambda_minus.imag)
        for k in ks
    ]
    assert max(unbroken) < 1e-12


# ----------------------------------------------- unbroken / critical set


def test_unbroken_at_agreement():
    rng = np.random.default_rng(23)
    for params in (ANISO, PSEUDO_ISO):
        for _ in range(10):
            f = FieldPoint(h=rng.uniform(0, 3), eta=rng.uniform(-1.5, 1.5))
            if abs(abs(f.eta) - params.eta_c) < 0.05:
                continue  # skip the boundary itself
            out = unbroken_at(params, f)
            assert out["analytic"] == (abs(f.eta) < params.eta_c)
            assert out["numeric"] == out["analytic"]


def test_critical_set_closed_forms():
    crit = critical_set(ANISO)
    assert abs(crit.r_c1 - np.sqrt(35.0) / 3.0) < 1e-12
    assert abs(crit.r_c2 - np.sqrt(5.0) / 3.0) < 1e-12
    assert crit.eta_c == 1.0
    assert crit.case == "anisotropic"
    assert "circles" in crit.qpt_description

    crit2 = critical_set(PSEUDO_ISO)
    assert abs(crit2.r_c1 - np.sqrt(3.0)) < 1e-12
    assert abs(crit2.r_c2 - np.sqrt(3.0) / 2.0) < 1e-12
    assert crit2.case == "pseudo_isotropic"
    assert "annulus" in crit2.qpt_description


def test_critical_set_circles_coincide_for_equal_couplings():
    p = XYParams(J=0.8, Js=0.8, Gamma=0.3, Gammas=0.3)
    crit = critical_set(p)
    assert abs(crit.r_c1 - crit.r_c2) < 1e-12


# ------------------------------------------------------ occupied levels


def test_occupied_levels():
    eig = biortho_eig(dk_matrix(ANISO, FieldPoint(h=0.5, eta=0.3), 0.7))
    occ = occupied_levels(eig)
    assert occ == [0, 1]
    assert np.all(eig.energies.real[occ] < 0)

    gapless = biortho_eig(np.diag([-1.0, 0.0, 1.0]).astype(complex))
    with pytest.raises(GaplessPoint):
        occupied_levels(gapless)


# ----------------------------------------------------- metric intensity


def test_metric_intensity_symmetric_and_finite():
    g = metric_intensity(ANISO, FieldPoint(h=0.5, eta=0.3), n_quad=65)
    assert g.shape == (2, 2)
    assert abs(g[0, 1] - g[1, 0]) < 1e-10 * max(np.max(np.abs(g)), 1.0)
    assert np.all(np.isfinite(g))
    assert g[0, 0] > 0  # field-field component is positive in the gapped bulk


def test_metric_intensity_methods_agree():
    f = FieldPoint(h=0.5, eta=0.3)
    g_pert = metric_intensity(ANISO, f, n_quad=33, method="perturbative")
    g_fd = metric_intensity(ANISO, f, n_quad=33, method="fd")
    assert np.max(np.abs(g_pert - g_fd)) < 1e-7 * np.max(np.abs(g_pert))


def test_fd_intensity_makes_one_bundle_per_node(monkeypatch):
    # every node's projector derivatives come from one stencil stack of
    # 2d+1 = 5 blocks per node, as many nodes per stack as the budget of
    # 512 matrices holds: 102
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("the FD intensity must not call qgt per level")

    monkeypatch.setattr(np.linalg, "eig", counted)
    monkeypatch.setattr(geometry, "qgt", forbidden)
    metric_intensity(ANISO, FieldPoint(h=0.4, eta=0.2), n_quad=24, method="fd")
    assert shapes == [(120, 4, 4)]
    shapes.clear()
    metric_intensity(ANISO, FieldPoint(h=0.4, eta=0.2), n_quad=129, method="fd")
    assert shapes == [(510, 4, 4), (135, 4, 4)]


def _fd_intensity_per_node(p, f, n_quad):
    """The FD intensity one node at a time: each node's D_k family
    differenced alone, the terms added in node order. A node is refused
    first for a complex block spectrum, an |Im E| above 1e-9 of the
    largest |Re E| over all the point's nodes."""
    ks, wts = _gl_nodes(n_quad)
    lam = np.array([f.h, f.eta])
    nodes = [geometry._projector_derivatives(dk_family(p, k), lam, xy_chain._FD_STEP)
             for k in ks]
    scale = max(np.abs(eig.energies.real).max() for eig, _, _ in nodes)
    total = np.zeros((2, 2))
    for k, w, (eig, proj, dp) in zip(ks, wts, nodes):
        if np.abs(eig.energies.imag).max() > 1e-9 * scale:
            raise Degenerate(f"complex block spectrum at k = {k:.6f}")
        occ = occupied_levels(eig)
        geometry._check_gap(eig, occ)
        total += w * 2.0 * geometry._fd_qgt(proj, dp)[occ].real.sum(axis=0)
    return total / (4.0 * np.pi)


@pytest.mark.parametrize("p", [ANISO, PSEUDO_ISO], ids=["aniso", "pseudo_iso"])
@pytest.mark.parametrize("n_quad", [65, 129])
def test_fd_intensity_equals_the_per_node_route_bit_for_bit(p, n_quad):
    rng = np.random.default_rng(5)
    for h, eta in zip(rng.uniform(0.0, 3.0, 4), rng.uniform(-0.9, 0.9, 4)):
        f = FieldPoint(h=h, eta=eta)
        g = metric_intensity(p, f, n_quad=n_quad, method="fd")
        assert np.array_equal(g, _fd_intensity_per_node(p, f, n_quad))


def test_metric_intensity_fd_default_step_near_pt_line():
    # 0.0026 from eta_c, where g22 diverges: the FD route's O(step^2)
    # truncation grows there, and the default step must keep it small
    f = FieldPoint(h=1.1798084793552917, eta=0.9974232732342033)
    g_pert = metric_intensity(ANISO, f, n_quad=65)
    g_fd = metric_intensity(ANISO, f, n_quad=65, method="fd")
    assert np.max(np.abs(g_fd - g_pert)) < 1e-7 * np.linalg.norm(g_pert)


def test_metric_intensity_quadrature_convergence():
    f = FieldPoint(h=0.5, eta=0.3)
    g65 = metric_intensity(ANISO, f, n_quad=65)
    g129 = metric_intensity(ANISO, f, n_quad=129)
    assert np.max(np.abs(g129 - g65)) < 1e-6 * np.max(np.abs(g65))
    # doubling the nodes moves no entry by more than 1e-4 relative away
    # from the critical circles
    g130 = metric_intensity(ANISO, f, n_quad=130)
    assert np.max(np.abs(g130 - g65)) <= 1e-4 * np.max(np.abs(g65))


def test_metric_intensity_unconverged_near_critical_circle():
    crit = critical_set(ANISO)
    f = FieldPoint(h=crit.r_c1 + 1e-6, eta=0.0)
    g16 = metric_intensity(ANISO, f, n_quad=16)
    g32 = metric_intensity(ANISO, f, n_quad=32)
    assert np.max(np.abs(g32 - g16)) > 1e-4 * np.max(np.abs(g16))


def test_metric_intensity_hermitian_line_oracle():
    # at eta = 0 every block is Hermitian: integrate the textbook ground-
    # sector metric with an independent eigh-based evaluation
    f = FieldPoint(h=1.0, eta=0.0)
    n_quad = 65
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(n_quad)
    ks = (np.pi / 4.0) * (x + 1.0)
    wts = (np.pi / 4.0) * w
    dh = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    deta = np.array(
        [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, 1j, 0, 0], [-1j, 0, 0, 0]],
        dtype=complex,
    )
    total = np.zeros((2, 2))
    for k, wt in zip(ks, wts):
        e, v = np.linalg.eigh(dk_matrix(ANISO, f, k))
        amps = [v.conj().T @ dh @ v, v.conj().T @ deta @ v]
        for n in np.flatnonzero(e < 0):
            others = np.delete(np.arange(4), n)
            denom = 2.0 * (e[n] - e[others]) ** 2
            for mu in range(2):
                for nu in range(2):
                    num = (
                        amps[mu][n, others] * amps[nu][others, n]
                        + amps[mu][others, n] * amps[nu][n, others]
                    )
                    total[mu, nu] += wt * 2.0 * float(np.sum((num / denom).real))
    oracle = total / (4.0 * np.pi)
    g = metric_intensity(ANISO, f, n_quad=n_quad)
    assert np.max(np.abs(g - oracle)) < 1e-10 * np.max(np.abs(oracle))


def test_g22_magnitude_grows_toward_pt_breaking():
    f_vals = [
        metric_intensity(ANISO, FieldPoint(h=0.5, eta=eta), n_quad=65)[1, 1]
        for eta in (0.90, 0.95, 0.99)
    ]
    mags = [abs(v) for v in f_vals]
    assert mags[0] < mags[1] < mags[2]


def test_stacked_kernel_is_the_one_point_kernel_per_point():
    hs = [0.0, 0.75, 1.95, 3.0]
    etas = [0.3, -0.9, 0.0, 0.95]
    for params in (ANISO, PSEUDO_ISO):
        g = _intensity_perturbative(params, hs, etas, 65)
        assert g.shape == (4, 2, 2)
        for gi, h, eta in zip(g, hs, etas):
            one = metric_intensity(params, FieldPoint(h=h, eta=eta), n_quad=65)
            assert gi.tobytes() == one.tobytes()


def _gapless_node_field() -> float:
    # pseudo-isotropic, eta = 0: the gap closes at cos^2 k* =
    # (h^2 - r_c2^2)/(r_c1^2 - r_c2^2); put k* on a quadrature node
    crit = critical_set(PSEUDO_ISO)
    k_star = _gl_nodes(65)[0][20]
    return float(np.sqrt(crit.r_c2**2 + np.cos(k_star) ** 2 * (crit.r_c1**2 - crit.r_c2**2)))


def test_stacked_kernel_refuses_as_the_first_refused_point():
    h_star = _gapless_node_field()
    with pytest.raises(GaplessPoint) as alone:
        metric_intensity(PSEUDO_ISO, FieldPoint(h=h_star, eta=0.0), n_quad=65)
    with pytest.raises(GaplessPoint) as stacked:
        _intensity_perturbative(PSEUDO_ISO, [1.0, h_star, 2.0, h_star + 0.5],
                                [0.0] * 4, 65)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(Degenerate):  # complex block spectrum beyond eta_c
        _intensity_perturbative(ANISO, [0.5, 0.5], [0.3, 1.2], 65)


def test_kernel_refuses_occupied_levels_that_cross_at_a_node(monkeypatch):
    # D_k's occupied pair never meets on a real grid; a crafted eigensystem
    # joins levels 0 and 1 at node 7 of the second point
    real = xy_chain.biortho_eig

    def crossing(blocks):
        eig = real(blocks)
        e = eig.energies.copy()
        e[1, 7, 1] = e[1, 7, 0]
        return dataclasses.replace(eig, energies=e)

    monkeypatch.setattr(xy_chain, "biortho_eig", crossing)
    k = _gl_nodes(65)[0][7]
    with pytest.raises(Degenerate, match=f"level crossing at quadrature node k = {k:.6f}"):
        _intensity_perturbative(ANISO, [0.5, 0.7], [0.3, 0.3], 65)


def _all_pairs_refusals(energies):
    """The kernel's refusal rule with every pair of levels compared: the
    oracle of the neighbour-gap rule."""
    e = energies.real
    e_scale = np.maximum(np.abs(e).max(axis=(1, 2)), 1e-300)[:, None, None]
    gaps = np.abs(e[..., :, None] - e[..., None, :]) + np.diag(np.full(4, np.inf))
    complex_spectrum = np.any(np.abs(energies.imag) > 1e-9 * e_scale, axis=-1)
    gapless = np.any(np.abs(e) < 1e-10 * e_scale, axis=-1)
    crossing = np.any((e < 0)[..., :, None] & (gaps < 1e-10 * e_scale[..., None]),
                      axis=(-2, -1))
    return complex_spectrum, gapless, crossing


def _spectra_at_the_cuts(rng, points=5, nodes=400):
    """Seeded level-sorted spectra (points, nodes, 4), each point's largest
    |E| 1 (node 0), so the gap cuts are 1e-10: at each other node one
    neighbour gap, one |E| or a pair +-E is set to the cut times a factor
    that straddles 1."""
    factors = 1e-10 * np.array([0.0, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0, 1e3])
    e = np.sort(rng.uniform(-1.0, 1.0, (points, nodes, 4)), axis=-1)
    e[:, 0] = [-1.0, -0.5, 0.5, 1.0]
    for p in range(points):
        for k in range(1, nodes):
            j, size = rng.integers(3), rng.choice(factors)
            kind = rng.integers(3)
            if kind == 0:  # levels j and j + 1 one gap apart
                e[p, k, j + 1] = e[p, k, j] + size
            elif kind == 1:  # one level near zero energy, of either sign
                e[p, k, j] = rng.choice([-1.0, 1.0]) * size
            else:  # a pair about zero, as D_k's levels are
                e[p, k, 1:3] = [-size / 2, size / 2]
    return np.sort(e, axis=-1)


def test_neighbour_gaps_refuse_the_nodes_every_pair_refuses():
    rng = np.random.default_rng(34)
    e = _spectra_at_the_cuts(rng)
    masks = xy_chain._refused_nodes(e)
    oracle = _all_pairs_refusals(e)
    for mask, want in zip(masks, oracle):
        assert np.array_equal(mask, want)
    _, gapless, crossing = oracle
    assert 0 < gapless.sum() < gapless.size and 0 < crossing.sum() < crossing.size
    assert (crossing & ~gapless).any()  # crossings away from zero energy too
    # a complex spectrum, its real parts sorted by the helper: Im E around
    # the 1e-9 cut, and real parts out of order within a node
    im = np.where(rng.random(e.shape) < 0.1,
                  rng.choice([0.5, 1 - 1e-6, 1 + 1e-6, 2.0], e.shape) * 1e-9, 0.0)
    shuffled = rng.permuted(e, axis=-1) + 1j * im
    masks = xy_chain._refused_nodes(shuffled)
    oracle = _all_pairs_refusals(shuffled)
    for mask, want in zip(masks, oracle):
        assert np.array_equal(mask, want)
    assert 0 < oracle[0].sum() < oracle[0].size


def test_fd_intensity_refuses_where_the_per_node_route_refuses(monkeypatch):
    # a gap closing on node 20: both routes raise the same GaplessPoint
    f = FieldPoint(h=_gapless_node_field(), eta=0.0)
    with pytest.raises(GaplessPoint) as stacked:
        metric_intensity(PSEUDO_ISO, f, n_quad=65, method="fd")
    with pytest.raises(GaplessPoint) as per_node:
        _fd_intensity_per_node(PSEUDO_ISO, f, 65)
    assert str(stacked.value) == str(per_node.value)
    # occupied levels 0 and 1 joined wherever level 1 lies above a cut,
    # the same nodes in either route, as level 1 rises with k here: node 30
    # on (the first stencil stack) or node 110 on (the second) is refused;
    # beyond eta_c, every node is joined, but every block spectrum is
    # complex too, and both routes refuse that first, at node 0
    real = geometry._projector_derivatives
    ks = _gl_nodes(129)[0]
    for f, first, refusal in ((FieldPoint(h=0.5, eta=0.3), 30, "level 0 gap 0.000e"),
                              (FieldPoint(h=0.5, eta=0.3), 110, "level 0 gap 0.000e"),
                              (FieldPoint(h=0.5, eta=2.5), 0,
                               f"complex block spectrum at k = {ks[0]:.6f}")):
        cut = -np.inf
        if first:
            below, above = [real(dk_family(ANISO, k), np.array([f.h, f.eta]),
                                 xy_chain._FD_STEP)[0].energies[1].real
                            for k in ks[[first - 1, first]]]
            assert below < above
            cut = 0.5 * (below + above)

        def joined(h_at, lam, step):
            eig, proj, dp = real(h_at, lam, step)
            e = eig.energies.copy()
            e[..., 1] = np.where(e[..., 1].real > cut, e[..., 0], e[..., 1])
            return dataclasses.replace(eig, energies=e), proj, dp

        monkeypatch.setattr(geometry, "_projector_derivatives", joined)
        with pytest.raises(Degenerate, match=refusal) as stacked:
            metric_intensity(ANISO, f, n_quad=129, method="fd")
        with pytest.raises(Degenerate) as per_node:
            _fd_intensity_per_node(ANISO, f, 129)
        assert str(stacked.value) == str(per_node.value)
        monkeypatch.setattr(geometry, "_projector_derivatives", real)


@pytest.mark.parametrize("n_quad", [24, 129])
def test_both_intensity_routes_refuse_a_complex_block_spectrum(n_quad):
    # beyond eta_c = 1 the blocks' spectra are complex at every node
    f = FieldPoint(h=0.5, eta=2.5)
    k0 = _gl_nodes(n_quad)[0][0]
    refusals = []
    for method in ("perturbative", "fd"):
        with pytest.raises(Degenerate, match="complex block spectrum") as refused:
            metric_intensity(ANISO, f, n_quad=n_quad, method=method)
        refusals.append(str(refused.value))
    assert refusals == [f"complex block spectrum at k = {k0:.6f}"] * 2
    with pytest.raises(Degenerate) as per_node:
        _fd_intensity_per_node(ANISO, f, n_quad)
    assert str(per_node.value) == refusals[1]


def test_stacked_kernel_scales_each_point_by_itself():
    # 8.7e-9 from zero energy at a node: above 1e-10 of its own scale
    # (~3.9), below 1e-10 of the h = 1e3 point's (~1e3)
    h_near = _gapless_node_field() + 1e-8
    g = _intensity_perturbative(PSEUDO_ISO, [1e3, h_near], [0.0, 0.0], 65)
    one = metric_intensity(PSEUDO_ISO, FieldPoint(h=h_near, eta=0.0), n_quad=65)
    assert g[1].tobytes() == one.tobytes()


def test_metric_intensity_argument_validation():
    f = FieldPoint(h=0.5, eta=0.3)
    with pytest.raises(ValueError):
        metric_intensity(ANISO, f, n_quad=1)
    with pytest.raises(ValueError):
        metric_intensity(ANISO, f, method="nope")


@pytest.mark.parametrize("n_quad", [65.0, 2.5, True, np.float64(65.0)])
def test_metric_intensity_refuses_a_non_integer_n_quad(n_quad):
    with pytest.raises(ValueError, match="n_quad must be an integer"):
        metric_intensity(ANISO, FieldPoint(h=0.5, eta=0.3), n_quad=n_quad)


def test_metric_intensity_takes_a_numpy_integer_n_quad():
    f = FieldPoint(h=0.5, eta=0.3)
    ref = metric_intensity(ANISO, f, n_quad=33)
    assert np.array_equal(metric_intensity(ANISO, f, n_quad=np.int64(33)), ref)
