import dataclasses
import warnings

import numpy as np
import pytest

from ptqgt import (
    DefectiveMatrix,
    FieldPoint,
    HamiltonianFamily,
    LoopSpec,
    NonFinite,
    NotPositiveDefinite,
    XYParams,
    ZeroScale,
    berry_phase_loop,
    biortho,
    biortho_eig,
    build_W,
    curvature_flux,
    dispersion,
    dk_family,
    default_step,
    dk_matrix,
    evolve,
    gauge_transform,
    metric_intensity,
    qgt,
    scan,
)
from ptqgt.cli import _circle_path
from ptqgt.families import load_bundled_model, pt_two_level_family, spin_half_family

ANISO = XYParams(J=1.0, Js=0.5, Gamma=1.0 / 3.0, Gammas=1.0 / 6.0)


def random_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def test_diagonal_hermitian():
    eig = biortho_eig(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert np.allclose(eig.energies, [1, 2, 3])
    assert np.allclose(np.abs(eig.right), np.eye(3))
    assert np.allclose(eig.left, eig.right)
    assert eig.unbroken


def test_jordan_block_defective():
    with pytest.raises(DefectiveMatrix):
        biortho_eig(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))


def test_nonfinite_rejected():
    with pytest.raises(NonFinite):
        biortho_eig(np.array([[np.nan, 0], [0, 1]], dtype=complex))
    # finite entries beyond the float range, refused without a warning:
    # E = +-1.7e308i, whose gap overflows, and a matrix whose scale does
    for h in ([[0.0, 1.7e308], [-1.7e308, 0.0]], np.full((2, 2), 1.7e308)):
        with pytest.raises(NonFinite):
            biortho_eig(np.array(h))
    with pytest.raises(ValueError):
        biortho_eig(np.zeros((2, 3)))


def test_stack_matches_per_matrix_calls():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4, 8):
        hs = rng.normal(size=(3, 5, n, n)) + 1j * rng.normal(size=(3, 5, n, n))
        stacked = biortho_eig(hs)
        w_stacked = build_W(stacked)
        assert stacked.energies.shape == (3, 5, n)
        assert stacked.unbroken.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                single = biortho_eig(hs[i, j])
                picked = stacked[i, j]
                for a, b in ((single.energies, picked.energies),
                             (single.right, picked.right),
                             (single.left, picked.left),
                             (build_W(single), w_stacked[i, j])):
                    assert np.max(np.abs(a - b)) <= 1e-14
                assert picked.unbroken is single.unbroken


def test_jordan_block_inside_stack_defective():
    rng = np.random.default_rng(9)
    stack = np.stack([random_matrix(rng, 2),
                      np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex),
                      random_matrix(rng, 2)])
    with pytest.raises(DefectiveMatrix):
        biortho_eig(stack)


def test_unbroken_reported_per_element():
    stack = np.stack([np.diag([1.0, 2.0]), np.diag([1.0 + 1j, 2.0]),
                      np.diag([-3.0, 0.5])]).astype(complex)
    eig = biortho_eig(stack)
    assert eig.unbroken.tolist() == [True, False, True]
    assert eig[0].unbroken is True and eig[1].unbroken is False


def test_one_eigensolve_per_call(monkeypatch):
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    fam = pt_two_level_family()
    ang = np.linspace(0.0, 2.0 * np.pi, 33)
    loop = LoopSpec(np.stack([0.15 + 0.05 * np.cos(ang), 0.85 + 0.05 * np.sin(ang)], axis=1), 0)
    loop.vertices[-1] = loop.vertices[0]
    calls = {
        "metric_intensity": (lambda: metric_intensity(ANISO, FieldPoint(h=0.5, eta=0.3),
                                                      n_quad=65), (65, 4, 4)),
        "qgt": (lambda: qgt(fam, [0.15, 0.85]), (5, 2, 2)),
        "berry_phase_loop": (lambda: berry_phase_loop(fam, loop), (32, 2, 2)),
    }
    for name, (call, stack) in calls.items():
        shapes.clear()
        call()
        assert shapes == [stack], name


def test_dk_block_real_spectrum_matches_dispersion():
    f = FieldPoint(h=0.5, eta=0.3)
    k = 0.7
    eig = biortho_eig(dk_matrix(ANISO, f, k))
    d = dispersion(ANISO, f, k)
    expected = sorted(
        [-d.lambda_plus.real, -d.lambda_minus.real, d.lambda_minus.real, d.lambda_plus.real]
    )
    assert eig.unbroken
    assert np.allclose(eig.energies.real, expected, atol=1e-10)
    assert np.max(np.abs(eig.energies.imag)) < 1e-10


def test_residuals_and_biorthonormality_random():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8):
        h = random_matrix(rng, n)
        eig = biortho_eig(h)
        scale = np.linalg.norm(h)
        for j in range(n):
            r1 = h @ eig.right[:, j] - eig.energies[j] * eig.right[:, j]
            r2 = h.conj().T @ eig.left[:, j] - eig.energies[j].conj() * eig.left[:, j]
            assert np.linalg.norm(r1) <= 1e-10 * scale
            assert np.linalg.norm(r2) <= 1e-10 * scale
        assert np.max(np.abs(eig.overlap_matrix() - np.eye(n))) < 1e-10
        # completeness
        assert np.linalg.norm(eig.right @ eig.left.conj().T - np.eye(n)) < 1e-9
        # unit norm + leading-component phase convention
        assert np.allclose(np.linalg.norm(eig.right, axis=0), 1.0)
        lead = np.argmax(np.abs(eig.right), axis=0)
        lead_vals = eig.right[lead, np.arange(n)]
        assert np.all(lead_vals.real > 0)
        assert np.max(np.abs(lead_vals.imag)) < 1e-12


def test_sorted_by_real_then_imag():
    h = np.diag([2.0 + 1j, 2.0 - 1j, -1.0]).astype(complex)
    eig = biortho_eig(h)
    assert np.allclose(eig.energies, [-1.0, 2.0 - 1j, 2.0 + 1j])
    assert not eig.unbroken


def _broken_pt_points(count):
    rng = np.random.default_rng(0)
    lams = rng.uniform(-1.0, 1.0, size=(10 * count, 2))
    return lams[lams[:, 1] ** 2 < lams[:, 0] ** 2 + 0.09 - 1e-3][:count]


def test_broken_pair_ordered_by_imaginary_part():
    # a broken pair's real parts are equal up to round-off, which must not
    # decide the order: level 0 is the -i|E| level, alone or in a stack
    fam = pt_two_level_family()
    lams = _broken_pt_points(2000)
    assert len(lams) == 2000
    stacked = biortho_eig(fam(lams))
    assert not stacked.unbroken.any()
    assert np.all(stacked.energies[:, 0].imag < 0)
    assert all(biortho_eig(fam(lam)).energies[0].imag < 0 for lam in lams)


def test_huge_entries_keep_the_phase():
    # the Frobenius norm squares the entries, which overflows from ~1e154
    h = pt_two_level_family()([0.2, 0.2])  # broken: E = +-0.3i
    for factor in (1e160, 1e300):
        eig = biortho_eig(factor * h)  # warnings are errors in the tests
        assert not eig.unbroken
        assert np.allclose(eig.energies, [-0.3j * factor, 0.3j * factor], rtol=1e-12)
    assert biortho_eig(1e160 * pt_two_level_family()([0.1, 0.9])).unbroken
    # each element of a stack is scaled by itself, a zero matrix included
    assert biortho_eig(np.stack([np.zeros((2, 2)), 1e160 * h])).unbroken.tolist() == [True, False]


def test_near_the_float_range_answers_without_a_warning():
    # a largest entry above float max / N, whose scale is still finite
    eig = biortho_eig(np.array([[1.7e308, 1.0], [0.0, 0.0]]))
    assert eig.energies.tolist() == [0.0, 1.7e308] and eig.unbroken
    eig = biortho_eig(np.full((2, 2), 6e307))
    assert eig.energies[1] == 1.2e308 and eig.unbroken
    eig = biortho_eig(np.array([[0.0, 1e200], [-1e200, 0.0]]))
    assert np.allclose(eig.energies, [-1e200j, 1e200j], rtol=1e-15, atol=0.0)
    assert not eig.unbroken


def test_real_stack_is_decomposed_in_real_arithmetic():
    rng = np.random.default_rng(12)
    s = rng.normal(size=(6, 4, 4)) + 3.0 * np.eye(4)
    h = (s * rng.normal(size=(6, 1, 4))) @ np.linalg.inv(s)  # real spectra
    real = biortho_eig(h)
    for a in (real.energies, real.right, real.left):
        assert a.dtype == np.float64
    assert real.unbroken.all()
    ref = biortho_eig(h.astype(complex))
    scale = np.abs(ref.energies).max(axis=-1, keepdims=True)
    assert np.all(np.abs(real.energies - ref.energies) <= 1e-14 * scale)
    assert np.max(np.abs(real.overlap_matrix() - np.eye(4))) <= 1e-12


def test_real_matrix_with_complex_spectrum():
    eig = biortho_eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert eig.energies.dtype == complex
    assert eig.energies.tolist() == [-1j, 1j]  # sorted by (Re E, Im E)
    assert np.max(np.abs(eig.overlap_matrix() - np.eye(2))) <= 1e-15
    assert not eig.unbroken


def test_real_jordan_block_defective():
    with pytest.raises(DefectiveMatrix):
        biortho_eig(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_real_jordan_block_in_a_real_stack_defective():
    # numpy returns a real spectrum for this stack, and the cluster check
    # still finds the coalescing vectors (N = 3, not the two-level dual
    # basis)
    jordan = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    assert np.isrealobj(np.linalg.eig(jordan).eigenvalues)
    with pytest.raises(DefectiveMatrix, match="coalescing eigenvectors"):
        biortho_eig(np.stack([np.diag([3.0, -1.0, 0.5]), jordan]))


def test_real_spectrum_with_ties_keeps_numpys_order():
    # a real spectrum is ordered by value alone: exactly equal eigenvalues
    # keep the order numpy returns them in, the arrays stay real and every
    # element is unbroken
    upper = np.array([[1.0, 0.5, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0]])
    h = np.stack([np.diag([1.0, 0.0, 1.0, 1.0]), upper, np.diag([2.0, 2.0, -2.0, -2.0])])
    w, vr = np.linalg.eig(h)
    assert np.isrealobj(w)
    eig = biortho_eig(h)
    for a in (eig.energies, eig.right, eig.left):
        assert a.dtype == np.float64
    assert eig.unbroken.tolist() == [True, True, True]
    order = np.argsort(w, axis=-1, kind="stable")
    assert np.array_equal(eig.energies, np.take_along_axis(w, order, axis=-1))
    # each level keeps numpy's vector for it, normalized with its largest
    # component positive: the tied levels are not swapped
    ref = np.take_along_axis(vr, order[:, None, :], axis=-1)
    ref = ref / np.linalg.norm(ref, axis=-2, keepdims=True)
    ref *= np.sign(np.take_along_axis(ref, np.abs(ref).argmax(axis=-2)[:, None, :], axis=-2))
    assert np.max(np.abs(eig.right - ref)) <= 1e-15
    assert eig.energies[0].tolist() == [0.0, 1.0, 1.0, 1.0]
    assert eig.right[0].tolist() == np.eye(4)[:, [1, 0, 2, 3]].tolist()


def test_complex_pair_in_a_real_stack_ordered_by_imaginary_part():
    # one element with a complex pair makes numpy's arrays complex for the
    # whole stack: that pair is ordered by Im E, the -i level first, and
    # the real elements keep real energies in ascending order
    rotation = np.zeros((4, 4))
    rotation[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    rotation[2:, 2:] = np.diag([2.0, -1.0])
    h = np.stack([np.diag([0.5, -3.0, 1.0, 0.0]), rotation])
    eig = biortho_eig(h)
    assert eig.energies.dtype == complex
    assert eig.unbroken.tolist() == [True, False]
    assert eig.energies[0].tolist() == [-3.0, 0.0, 0.5, 1.0]
    assert np.allclose(eig.energies[1], [-1.0, -1j, 1j, 2.0], rtol=0.0, atol=1e-15)
    assert eig.energies[1, 1].imag < 0 < eig.energies[1, 2].imag
    assert np.max(np.abs(eig.overlap_matrix() - np.eye(4))) <= 1e-15


def test_integer_matrix_accepted():
    eig = biortho_eig([[2, 1], [1, 2]])
    assert eig.energies.dtype == np.float64
    assert np.allclose(eig.energies, [1.0, 3.0], rtol=0.0, atol=1e-15)
    assert eig.unbroken


def test_degenerate_but_diagonalizable_ok():
    # identity has a fully degenerate spectrum yet a complete eigenbasis
    eig = biortho_eig(np.eye(3, dtype=complex))
    assert np.max(np.abs(eig.overlap_matrix() - np.eye(3))) < 1e-12


EPS = np.finfo(float).eps


def two_level_stacks(kind):
    """Seeded 2x2 stacks: random complex or real matrices, or pt_two_level
    points from 1e-6 (relative) to far from the EP circle s^2 = a^2 + b^2
    on either side."""
    rng = np.random.default_rng(21)
    if kind == "random":
        return rng.normal(size=(32, 2, 2)) + 1j * rng.normal(size=(32, 2, 2))
    if kind == "real":
        return rng.normal(size=(32, 2, 2))
    a = rng.uniform(-0.5, 0.5, 32)
    rel = np.geomspace(1e-6, 0.9, 32)
    s = np.sqrt(a**2 + 0.09) * (1.0 + rel if kind == "unbroken" else 1.0 - rel)
    return pt_two_level_family()(np.column_stack([a, s]))


@pytest.mark.parametrize("kind", ["random", "real", "unbroken", "broken"])
def test_two_level_dual_basis_is_biorthonormal_and_matches_inv(kind):
    # bounds, set before measuring, with kappa the 2-norm condition number
    # of each right-vector matrix Psi: |<Phi_m|Psi_n> - delta_mn| within
    # 16 eps kappa, and |Phi - inv(Psi)^dag| within 16 eps kappa |inv(Psi)|
    eig = biortho_eig(two_level_stacks(kind))
    kappa = np.linalg.cond(eig.right)
    if kind in ("unbroken", "broken"):
        assert np.all(eig.unbroken == (kind == "unbroken"))
        assert kappa.max() > 1e2  # near the EP the basis is far from orthogonal
    overlap = np.abs(eig.overlap_matrix() - np.eye(2)).max(axis=(-2, -1))
    assert np.all(overlap <= 16 * EPS * kappa)
    inv = np.linalg.inv(eig.right)
    dual = np.abs(eig.left - np.swapaxes(inv.conj(), -1, -2)).max(axis=(-2, -1))
    assert np.all(dual <= 16 * EPS * kappa * np.linalg.norm(inv, 2, axis=(-2, -1)))


@pytest.mark.parametrize("n, second, match", [
    (2, 0.0, "right eigenvector matrix is singular"),
    (3, 0.0, "right eigenvector matrix is singular"),
    # det 1e-320: the dual vectors overflow and fail the norm check
    (2, 1e-320, "overlap numerically singular"),
])
def test_singular_right_vectors_raise_without_a_warning(monkeypatch, n, second, match):
    def parallel(a):
        # distinct eigenvalues, so no cluster check intervenes; every right
        # vector is e_0 but the last, which is (1, second, 0, ...)
        vr = np.zeros((len(a), n, n), complex)
        vr[:, 0, :] = 1.0
        vr[:, 1, -1] = second
        return np.tile(np.arange(n, dtype=complex), (len(a), 1)), vr

    monkeypatch.setattr(np.linalg, "eig", parallel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DefectiveMatrix, match=match):
            biortho_eig(np.diag(np.arange(n, dtype=complex)))


def test_build_w_hermitian_identity_case():
    rng = np.random.default_rng(5)
    a = random_matrix(rng, 4)
    h = a + a.conj().T
    eig = biortho_eig(h)
    w = build_W(eig)
    assert np.max(np.abs(w - np.eye(4))) < 1e-10
    assert np.max(np.abs(eig.left - eig.right)) < 1e-10


def test_build_w_intertwines_dk():
    h = dk_matrix(ANISO, FieldPoint(h=0.5, eta=0.3), 0.7)
    eig = biortho_eig(h)
    w = build_W(eig)
    assert np.max(np.abs(w - w.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(w)) > 0
    assert np.linalg.norm(w @ h - h.conj().T @ w) <= 1e-10 * np.linalg.norm(h) * np.linalg.norm(w)
    # right vectors orthonormal in the W inner product
    assert np.max(np.abs(eig.right.conj().T @ w @ eig.right - np.eye(4))) < 1e-10


def test_build_w_rejects_broken_eigensystem():
    h = dk_matrix(ANISO, FieldPoint(h=0.5, eta=0.3), 0.7)
    eig = biortho_eig(h)
    bad = gauge_transform(eig, np.array([1.0, 1.0, 1.0, 1e9]))
    # blowing up one right vector shrinks its left partner; W loses rank
    with pytest.raises(NotPositiveDefinite):
        build_W(bad)


def test_gauge_transform_roundtrip():
    rng = np.random.default_rng(11)
    eig = biortho_eig(random_matrix(rng, 4))
    f = rng.normal(size=4) + 1j * rng.normal(size=4)
    out = gauge_transform(eig, f)
    assert np.max(np.abs(out.overlap_matrix() - np.eye(4))) < 1e-12
    back = gauge_transform(out, 1.0 / f)
    assert np.max(np.abs(back.right - eig.right)) < 1e-12
    assert np.max(np.abs(back.left - eig.left)) < 1e-12

    doubled = gauge_transform(eig, np.full(4, 2.0))
    assert np.allclose(doubled.right, 2.0 * eig.right)
    assert np.allclose(doubled.left, 0.5 * eig.left)

    with pytest.raises(ZeroScale):
        gauge_transform(eig, np.array([1.0, 0.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.inf), complex(np.nan, 0.0)])
def test_gauge_transform_refuses_a_non_finite_factor(bad):
    eig = biortho_eig(random_matrix(np.random.default_rng(11), 4))
    with np.errstate(all="raise"), pytest.raises(NonFinite, match="must be finite"):
        gauge_transform(eig, np.array([1.0, bad, 1.0, 1.0]))


def test_family_derivative_matches_finite_difference():
    def evaluate(lam):
        return np.array([[lam[0] ** 2, np.sin(lam[1])], [np.sin(lam[1]), -lam[0]]],
                        dtype=complex)

    def derivative(lam, mu):
        if mu == 0:
            return np.array([[2 * lam[0], 0], [0, -1]], dtype=complex)
        return np.array([[0, np.cos(lam[1])], [np.cos(lam[1]), 0]], dtype=complex)

    fam = HamiltonianFamily(dim_hilbert=2, dim_param=2,
                            evaluate=evaluate, derivative=derivative)
    fam_fd = HamiltonianFamily(dim_hilbert=2, dim_param=2, evaluate=evaluate)
    rng = np.random.default_rng(7)
    for _ in range(5):
        lam = rng.normal(size=2)
        for mu in range(2):
            exact = fam.deriv(lam, mu)
            approx = fam_fd.deriv(lam, mu)  # central difference at default_step(lam)
            assert np.max(np.abs(exact - approx)) < 1e-8


def _no_derivative(fam):
    return dataclasses.replace(fam, derivative=None)


@pytest.mark.parametrize("make", [
    spin_half_family,                                  # analytic derivative
    lambda: _no_derivative(pt_two_level_family()),     # central-difference fallback
    lambda: load_bundled_model("pt_two_level"),        # .model file, no derivative
])
def test_family_stack_matches_per_point(make):
    fam = make()
    rng = np.random.default_rng(3)
    lams = rng.uniform(0.2, 1.0, size=(3, 4, fam.dim_param))
    h = fam(lams)
    assert h.shape == (3, 4, fam.dim_hilbert, fam.dim_hilbert)
    for mu in range(fam.dim_param):
        dh = fam.deriv(lams, mu)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(h[idx], fam(lams[idx]))
            assert np.array_equal(dh[idx], fam.deriv(lams[idx], mu))
            if fam.derivative is None:
                # each point of the stack is differenced at its own step
                step = default_step(lams[idx]) * np.eye(fam.dim_param)[mu]
                fd = (fam(lams[idx] + step) - fam(lams[idx] - step)) / (2.0 * step[mu])
                assert np.array_equal(dh[idx], fd)


@pytest.mark.parametrize("make", [pt_two_level_family,
                                  lambda: _no_derivative(pt_two_level_family())])
@pytest.mark.parametrize("mu", [-1, 2, 5])
def test_family_deriv_rejects_out_of_range_mu(make, mu):
    with pytest.raises(ValueError, match="mu must lie in 0..1"):
        make().deriv(np.array([0.1, 0.8]), mu)


@pytest.mark.parametrize("make", [pt_two_level_family,
                                  lambda: _no_derivative(pt_two_level_family())])
@pytest.mark.parametrize("mu", [True, np.bool_(True), 1.0, 0.5])
def test_family_deriv_rejects_a_non_integer_mu(make, mu):
    # a bool mu indexed the difference direction as a mask: True stepped
    # along every axis at once
    with pytest.raises(ValueError, match="mu must be an integer"):
        make().deriv(np.array([0.1, 0.8]), mu)
    assert make().deriv(np.array([0.1, 0.8]), np.int64(1)).shape == (2, 2)


@pytest.mark.parametrize("point", [[1.7e308, 1.7e308], [np.nan, 0.2], [0.2, np.inf]])
def test_family_deriv_refuses_a_non_finite_difference_point(point):
    # a NaN or Inf coordinate, or a step that overflows (|lam| beyond the
    # float range), is refused before evaluate sees it, with no warning
    model = load_bundled_model("pt_two_level")
    seen = []
    fam = dataclasses.replace(model, evaluate=lambda lam: seen.append(lam) or model.evaluate(lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu in range(2):
            with pytest.raises(NonFinite, match="difference point of deriv"):
                fam.deriv(point, mu)
    assert seen == []
    # an analytic derivative is not differenced, so it is not refused
    assert np.array_equal(pt_two_level_family().deriv(point, 1), np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize("dims", [(2.0, 1), (2, 1.0), (True, 1), (2, True), (np.bool_(True), 1)])
def test_family_sizes_must_be_integers(dims):
    with pytest.raises(ValueError, match="dimensions must be integers"):
        HamiltonianFamily(*dims, evaluate=lambda lam: np.eye(2))
    # numpy integers are sizes
    fam = HamiltonianFamily(np.int64(2), np.int32(1), evaluate=lambda lam: np.eye(2))
    assert fam([0.3]).shape == (2, 2)


@pytest.mark.parametrize("shape", [(4, 3), (2, 4, 1), (3,), ()])
def test_family_rejects_points_of_wrong_length(shape):
    fam = _no_derivative(pt_two_level_family())
    with pytest.raises(ValueError, match="points of length 2"):
        fam(np.zeros(shape))
    with pytest.raises(ValueError, match="points of length 2"):
        fam.deriv(np.zeros(shape), 0)


def test_one_point_results_are_fresh_arrays():
    # a point is a stack of one: writing into its result cannot reach a
    # matrix the family keeps (spin_half's derivatives are its Paulis)
    shared = np.eye(2, dtype=complex)
    const = HamiltonianFamily(dim_hilbert=2, dim_param=1, evaluate=lambda lam: shared)
    h = const([0.3])
    h[...] = 7.0
    assert np.array_equal(const([0.3]), np.eye(2))
    fam = spin_half_family()
    dh = fam.deriv([0.0, 0.0, 1.0], 0)
    dh[...] = 7.0
    assert np.array_equal(fam.deriv([0.0, 0.0, 1.0], 0), [[0, 1], [1, 0]])


# The bundled families as they were written per point, before they became
# batched: the batched forms must give the same bits.
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _spin_half_reference(lam, mu=None):
    if mu is not None:
        return (_SX, _SY, _SZ)[mu]
    return lam[0] * _SX + lam[1] * _SY + lam[2] * _SZ


def _pt_two_level_reference(lam, mu=None, b=0.3):
    if mu == 0:
        return np.array([[0, 1], [-1, 0]], dtype=complex)
    if mu == 1:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    a, s = lam
    return np.array([[1j * b, s + a], [s - a, -1j * b]], dtype=complex)


def _dk_reference(lam, mu=None, k=0.7):
    if mu == 0:
        return np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    if mu == 1:
        return np.array([[0, 0, 0, -1j], [0, 0, 1j, 0], [0, 1j, 0, 0], [-1j, 0, 0, 0]],
                        dtype=complex)
    return dk_matrix(ANISO, FieldPoint(h=lam[0], eta=lam[1]), k)


@pytest.mark.parametrize("fam, reference", [
    (spin_half_family(), _spin_half_reference),
    (pt_two_level_family(), _pt_two_level_reference),
    (dk_family(ANISO, 0.7), _dk_reference),
])
def test_batched_families_match_per_point_reference(fam, reference):
    assert fam.batched
    rng = np.random.default_rng(11)
    lams = rng.uniform(-1.5, 1.5, size=(3, 4, fam.dim_param))
    expected = np.array([[reference(p) for p in row] for row in lams])
    assert np.array_equal(fam(lams), expected)
    assert np.array_equal(fam(lams[1, 2]), reference(lams[1, 2]))
    for mu in range(fam.dim_param):
        expected = np.array([[reference(p, mu) for p in row] for row in lams])
        assert np.array_equal(fam.deriv(lams, mu), expected)
        assert np.array_equal(fam.deriv(lams[2, 3], mu), reference(lams[2, 3], mu))


@pytest.mark.parametrize("batched", [False, True])
def test_family_refuses_results_of_the_wrong_shape(batched):
    def scalar(lam):
        return 1.0

    def row(lam):
        return np.ones(lam.shape[:-1] + (2,))  # (N,) per point, (P, N) per stack

    def three(lam):
        return np.ones(lam.shape[:-1] + (3, 3))

    for evaluate in (scalar, row, three):
        fam = HamiltonianFamily(2, 1, evaluate=evaluate, derivative=lambda lam, mu: evaluate(lam),
                                batched=batched)
        with pytest.raises(ValueError, match="expected a result of shape"):
            fam([0.3])
        with pytest.raises(ValueError, match="expected a result of shape"):
            fam(np.full((5, 1), 0.3))
        with pytest.raises(ValueError, match="expected a result of shape"):
            fam.deriv(np.full((5, 1), 0.3), 0)


def test_family_refuses_a_mix_of_result_shapes():
    fam = HamiltonianFamily(2, 1, evaluate=lambda lam: np.eye(2) if lam[0] > 0 else 1.0)
    with pytest.raises(ValueError):
        fam(np.array([[0.3], [-0.3]]))


def test_batched_family_broadcasts_a_constant_matrix():
    shared = np.eye(2, dtype=complex)
    const = HamiltonianFamily(2, 1, evaluate=lambda lam: np.broadcast_to(shared, (len(lam), 2, 2)),
                              batched=True)
    h = const(np.full((3, 1), 0.3))
    assert h.shape == (3, 2, 2)
    assert np.array_equal(h, np.broadcast_to(shared, (3, 2, 2)))
    h[...] = 7.0  # a fresh array: the family's own matrix is untouched
    assert np.array_equal(shared, np.eye(2))
    one = const([0.3])
    one[...] = 7.0
    assert np.array_equal(const([0.3]), np.eye(2))
    real = HamiltonianFamily(2, 1, evaluate=lambda lam: np.ones((len(lam), 2, 2)), batched=True)
    assert real([0.3]).dtype == complex


@pytest.mark.parametrize("points", [2, 3])
def test_batched_family_refuses_a_row_per_point_whatever_the_stack_size(points):
    # (P, N) is not (N, N) even at P = N: a batched result is always (P, N, N)
    row = HamiltonianFamily(2, 1, evaluate=lambda lam: np.ones(lam.shape[:-1] + (2,)),
                            batched=True)
    with pytest.raises(ValueError, match="expected a result of shape"):
        row(np.full((points, 1), 0.3))
    const = HamiltonianFamily(2, 1, evaluate=lambda lam: np.eye(2), batched=True)
    with pytest.raises(ValueError, match="expected a result of shape"):
        const(np.full((points, 1), 0.3))


def test_stack_budget_sizes_stacks_but_never_changes_answers(monkeypatch):
    # The one budget sizes flux blocks, scan chunks and transport chunks.
    # At 64 matrices a 30-row flux block is 2 rows, a transport chunk 32
    # steps and a scan chunk at n_quad 65 a single point (the floor of one).
    fam = pt_two_level_family()
    path = _circle_path(np.array([0.15, 0.85]), 0.05, 5.0)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    hs = np.linspace(0.0, 3.0, 41)

    def answers():
        row = scan._scan_row((ANISO, hs, 0.3, 65))
        res = evolve(fam, path, psi0, n_steps=300, track_level=0, drift_tol=np.inf)
        flux = curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=30)
        g = np.array([(r.g11, r.g12, r.g22) for r in row])
        return g, res, flux

    g, res, flux = answers()
    assert [biortho._per_stack(m) for m in (30, 2, 65)] == [17, 256, 7]
    monkeypatch.setattr(biortho, "_STACK", 64)
    assert [biortho._per_stack(m) for m in (30, 2, 65)] == [2, 32, 1]
    g64, res64, flux64 = answers()
    assert g64.tobytes() == g.tobytes()
    for field in ("states", "w_norms"):
        assert getattr(res64, field).tobytes() == getattr(res, field).tobytes()
    assert res64.geometric_phase == res.geometric_phase
    # the block sums are added in another order
    assert abs(flux64 - flux) <= 4 * np.spacing(abs(flux))
    assert flux != 0.0
