import dataclasses
import tracemalloc

import closed_forms
import numpy as np
import pytest

from ptqgt import (
    Degenerate,
    FieldPoint,
    HamiltonianFamily,
    LoopSpec,
    NonFinite,
    NotPositiveDefinite,
    OpenLoop,
    PathSpec,
    PtqgtError,
    adiabatic_phase,
    berry_phase_loop,
    biortho,
    biortho_eig,
    build_W,
    classify_interval,
    curvature_flux,
    default_step,
    dk_family,
    evolve,
    fidelity,
    gauge_transform,
    geometry,
    o_operators,
    parse_model,
    qgt,
    variance_metric,
)
from ptqgt.families import load_bundled_model, pt_two_level_family, spin_half_family
from ptqgt.verify import ANISO, standard_qgt_oracle

NORTH = np.array([0.0, 0.0, 1.0])


def sphere_point(theta, phi_az):
    return np.array(
        [np.sin(theta) * np.cos(phi_az), np.sin(theta) * np.sin(phi_az), np.cos(theta)]
    )


def circle_loop(theta, n_verts):
    az = np.linspace(0.0, 2.0 * np.pi, n_verts + 1)
    return np.stack([sphere_point(theta, a) for a in az])


def pt_loop(level, n_verts=16):
    """Closed circle of radius 0.05 about (0.15, 0.85) in the unbroken
    phase of pt_two_level."""
    az = np.linspace(0.0, 2.0 * np.pi, n_verts + 1)
    verts = np.array([0.15, 0.85]) + 0.05 * np.stack([np.cos(az), np.sin(az)], axis=1)
    verts[-1] = verts[0]
    return LoopSpec(vertices=verts, level=level)


# ------------------------------------------------------------------- qgt


def test_spin_half_qgt_north_pole():
    fam = spin_half_family()
    tensor = qgt(fam, NORTH, n=0)
    expected = np.array(
        [
            [0.25, -0.25j, 0.0],
            [0.25j, 0.25, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    assert np.max(np.abs(tensor.q - expected)) < 1e-8
    omega, g = tensor.q.imag, tensor.q.real
    assert np.max(np.abs(omega + omega.T)) < 1e-12
    assert np.max(np.abs(g - g.T)) < 1e-12
    assert abs(omega[0, 1] + 0.25) < 1e-8


def test_spin_half_qgt_matches_oracle_generic_points():
    fam = spin_half_family()
    rng = np.random.default_rng(2)
    for _ in range(5):
        lam = rng.normal(size=3)
        lam /= np.linalg.norm(lam)
        for n in (0, 1):
            q = qgt(fam, lam, n=n).q
            q_ref = standard_qgt_oracle(fam, lam, n=n)
            assert np.max(np.abs(q - q_ref)) < 1e-7


def test_one_parameter_family_has_zero_curvature():
    fam = HamiltonianFamily(
        dim_hilbert=2,
        dim_param=1,
        evaluate=lambda lam: np.array(
            [[lam[0], 0.7], [0.7, -lam[0]]], dtype=complex
        ),
    )
    tensor = qgt(fam, np.array([0.4]), n=0)
    assert abs(tensor.q.imag[0, 0]) < 1e-10
    assert tensor.q.real[0, 0] > 0


def test_qgt_degenerate_gap_raises():
    # two levels split by 1e-9 against an O(1) spectrum scale
    fam = HamiltonianFamily(
        dim_hilbert=3,
        dim_param=1,
        evaluate=lambda lam: np.diag([lam[0], 1.0, 1.0 + 1e-9]).astype(complex),
    )
    with pytest.raises(Degenerate):
        qgt(fam, np.array([-0.5]), n=1)


def test_qgt_refuses_stencil_across_exceptional_point():
    # (a, s) sits on the unbroken side of the EP circle s^2 = a^2 + 0.09,
    # with s^2 - a^2 - 0.09 = 7e-8; the stencil point s - step is broken,
    # so differencing across the EP would return a wrong Q
    fam = load_bundled_model("pt_two_level")
    lam = np.array([0.00220252, 0.3000082])
    assert biortho_eig(fam(lam)).unbroken
    with pytest.raises(Degenerate):
        qgt(fam, lam, n=0)


def test_qgt_refuses_a_numerically_singular_stencil_metric():
    # H = [[i, 1], [l1 + i l2, i]] has its EP at l = 0. At l = (2e-16, 2e-16)
    # the stencil's W has lambda_min / lambda_max ~ 2.8e-16, below the cut
    # 2 eps = 4.4e-16: the eigensystem is refused, not differenced.
    fam = HamiltonianFamily(dim_hilbert=2, dim_param=2,
                            evaluate=lambda lam: np.array([[1j, 1.0],
                                                           [lam[0] + 1j * lam[1], 1j]]))
    with pytest.raises(NotPositiveDefinite):
        qgt(fam, np.array([2e-16, 2e-16]), n=0)


@pytest.mark.parametrize("name, lam", [("pt_two_level", [0.1, 0.8]),
                                       ("spin_half", [0.3, -0.2, 0.7])])
def test_qgt_evaluates_only_its_stencil(monkeypatch, name, lam):
    model = load_bundled_model(name)
    assert model.batched
    calls = []

    def evaluate(points):
        calls.append(len(points))
        return model.evaluate(points)

    def forbidden(*args, **kwargs):
        raise AssertionError("qgt must not differentiate H")

    monkeypatch.setattr(HamiltonianFamily, "deriv", forbidden)
    qgt(dataclasses.replace(model, evaluate=evaluate), np.array(lam), n=0)
    assert calls == [2 * model.dim_param + 1]  # one call on the whole stencil


@pytest.mark.parametrize("fam, lam", [
    (dk_family(ANISO, 0.8), [0.4, 0.2]),
    (dk_family(ANISO, 0.3), [1.7, -0.3]),
    (pt_two_level_family(), [0.15, 0.85]),  # unbroken
    (pt_two_level_family(), [0.2, 0.2]),  # broken
])
def test_qgt_exactly_hermitian_at_every_level(fam, lam):
    for n in range(fam.dim_hilbert):
        q = qgt(fam, lam, n=n).q
        assert np.array_equal(q, q.conj().T)


def test_fd_qgt_matches_the_per_level_formula():
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    eig, proj, dp = geometry._projector_derivatives(fam, lam, default_step(lam))
    q = geometry._fd_qgt(proj, dp)
    assert proj.shape == (4, 4, 4) and dp.shape == (2, 4, 4, 4) and q.shape == (4, 2, 2)
    for n in range(4):
        p = np.outer(eig.right[:, n], eig.left[:, n].conj())
        x = np.array([[np.trace(p @ dp[mu, n] @ dp[nu, n]) for nu in range(2)]
                      for mu in range(2)])
        ref = 0.5 * (x + x.conj().T)
        assert np.max(np.abs(q[n] - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_qgt_follows_levels_that_swap_order_across_the_stencil():
    # H = [[l1 + i, l2], [l2, -l1 - i]] has E = +-sqrt((l1 + i)^2 + l2^2),
    # whose real parts change sign with l1: at l1 = 1e-7 the stencil's
    # (Re E, Im E) order flips between l1 - step and l1 + step
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    fam = HamiltonianFamily(dim_hilbert=2, dim_param=2,
                            evaluate=lambda lam: (lam[0] + 1j) * sz + lam[1] * sx,
                            derivative=lambda lam, mu: sz if mu == 0 else sx)
    lam = np.array([1e-7, 0.1])
    step = default_step(lam)
    lo, hi = (biortho_eig(fam(lam + s * np.array([1.0, 0.0]))) for s in (-step, step))
    assert np.argmax(lo.energies.imag) != np.argmax(hi.energies.imag)
    eig = biortho_eig(fam(lam))
    dh = np.stack([fam.deriv(lam, mu) for mu in range(2)])
    for n in range(2):
        q_sos = geometry._sos_qgt(eig, dh, np.arange(2) == n)
        q = qgt(fam, lam, n=n).q
        assert np.max(np.abs(q - q_sos)) <= 1e-8 * np.linalg.norm(q_sos)


@pytest.mark.parametrize("call", [
    lambda fam, lam, bundle: qgt(fam, lam, n=0, bundle=bundle),
    lambda fam, lam, bundle: o_operators(fam, lam, bundle=bundle),
])
def test_no_bundle_keyword(call):
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    with pytest.raises(TypeError):
        call(fam, lam, geometry._projector_derivatives(fam, lam, default_step(lam)))


@pytest.mark.parametrize("call", [
    lambda: qgt(pt_two_level_family(), [0.15, 0.85], n=2),
    lambda: qgt(pt_two_level_family(), [0.15, 0.85], n=-1),
    lambda: qgt(dk_family(ANISO, 0.8), [0.4, 0.2], n=5),
    lambda: curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], resolution=4, n=3),
    lambda: berry_phase_loop(pt_two_level_family(), pt_loop(level=4)),
    lambda: berry_phase_loop(pt_two_level_family(), pt_loop(level=-2)),
    lambda: fidelity(*[biortho_eig(pt_two_level_family()(lam))
                       for lam in ([0.15, 0.85], [0.16, 0.85])], n=3),
    lambda: fidelity(*[biortho_eig(pt_two_level_family()(lam))
                       for lam in ([0.15, 0.85], [0.16, 0.85])], n=-1),
])
def test_level_index_out_of_range(call):
    with pytest.raises(ValueError, match="level must lie in"):
        call()


@pytest.mark.parametrize("call", [
    lambda: curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], resolution=64, n=3),
    lambda: qgt(pt_two_level_family(), [0.15, 0.85], n=7),
])
def test_level_checked_before_any_eigensolve(monkeypatch, call):
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    with pytest.raises(ValueError, match="level must lie in"):
        call()
    assert shapes == []
    # a valid level still takes the one stacked solve of the 2d+1 stencil
    qgt(pt_two_level_family(), [0.15, 0.85], n=1)
    assert shapes == [(5, 2, 2)]


@pytest.mark.parametrize("fam, lam", [
    (pt_two_level_family(), [0.8]),
    (pt_two_level_family(), 0.8),
    (pt_two_level_family(), [[0.15, 0.85]]),
    (load_bundled_model("spin_half"), [1.0]),
    (spin_half_family(), [0.3, -0.2]),
])
def test_qgt_refuses_a_point_of_the_wrong_shape(monkeypatch, fam, lam):
    # a short point used to broadcast against the stencil and answer for
    # another point: [0.8] for (0.8, 0.8), [1.0] for (1, 1, 1)
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    with pytest.raises(ValueError, match=rf"point must have shape \({fam.dim_param},\)"):
        qgt(fam, lam)
    assert shapes == []


def _pt_circle(tau=5.0):
    return PathSpec(curve=lambda t: np.array([0.15, 0.85]) + 0.05 * np.array(
        [np.cos(2 * np.pi * t / tau), np.sin(2 * np.pi * t / tau)]), duration=tau, closed=True)


@pytest.mark.parametrize("call", [
    lambda n: qgt(pt_two_level_family(), [0.15, 0.85], n=n),
    lambda n: berry_phase_loop(pt_two_level_family(), pt_loop(level=n)),
    lambda n: curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], resolution=4, n=n),
    lambda n: fidelity(*[biortho_eig(pt_two_level_family()(lam))
                         for lam in ([0.15, 0.85], [0.16, 0.85])], n=n),
    lambda n: evolve(pt_two_level_family(), _pt_circle(),
                     biortho_eig(pt_two_level_family()([0.2, 0.85])).right[:, 0],
                     n_steps=300, track_level=n),
    lambda n: adiabatic_phase(pt_two_level_family(), _pt_circle(), n=n, n_steps=300),
])
def test_level_must_be_an_integer(call):
    for level in (0.0, 1.0, True, False, np.bool_(False), np.float64(0.0)):
        with pytest.raises(ValueError, match="level must be an integer"):
            call(level)
    call(np.int64(0))  # numpy integers are levels


@pytest.mark.parametrize("d", [1, 2, 3])
def test_default_step_on_a_stack_equals_per_point_calls(d):
    rng = np.random.default_rng(d)
    lams = rng.normal(size=(1000, d)) * 10.0 ** rng.uniform(-3, 3, size=(1000, 1))
    steps = geometry.default_step(lams)
    per_point = np.array([geometry.default_step(lam) for lam in lams])
    reference = np.array([1e-5 * (1.0 + float(np.linalg.norm(lam))) for lam in lams])
    assert np.array_equal(steps, per_point)
    assert np.array_equal(steps, reference)
    assert np.array_equal(geometry.default_step(lams.reshape(2, 500, d)),
                          steps.reshape(2, 500))


def test_default_step_far_out_takes_the_norm_without_overflow():
    # |lam|^2 overflows at 1e300: default_step, deriv and qgt used to warn
    # "overflow encountered in vecdot" there
    far, ordinary = [1e300, 0.2], [0.3, 0.4]
    assert default_step(far) == 1e-5 * (1.0 + 1e300)
    assert np.array_equal(default_step([far, ordinary]),
                          [default_step(far), 1e-5 * (1.0 + np.sqrt(0.25))])
    assert default_step([1.7e308, 1.7e308]) == np.inf
    for fam in (pt_two_level_family(), load_bundled_model("pt_two_level")):
        assert np.isfinite(fam.deriv(far, 0)).all()
        try:
            q = qgt(fam, far).q
        except PtqgtError:
            pass
        else:
            assert np.isfinite(q).all()
        # beyond the float range the step itself overflows; at its edge the
        # stencil points are finite, but the gap of their spectrum is not
        with pytest.raises(NonFinite, match="step"):
            qgt(fam, [1.7e308, 1.7e308])
        with pytest.raises(NonFinite, match="gap"):
            qgt(fam, [1.7976e308, 0.0])


def test_metric_perturbative_matches_fd_on_dk():
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    eig = biortho_eig(fam(lam))
    dh = np.stack([fam.deriv(lam, mu) for mu in range(2)])
    geometry._check_gap(eig, [0])
    g_pert = geometry._sos_qgt(eig, dh, np.arange(4) == 0).real
    g_fd = qgt(fam, lam, n=0).q.real
    assert np.max(np.abs(g_pert - g_fd)) < 1e-6 * np.linalg.norm(g_pert)


def test_metric_perturbative_with_an_exactly_degenerate_pair_above_level_0():
    # At b = 0 levels 1 and 2 meet exactly and level 0 stays clear. The
    # pair's response to itself is 0/0; it must enter as zero, not as NaN.
    def evaluate(lam):
        a, b = lam
        return np.array([[a - 2.0, b, b], [b, 1.0, 0.0], [b, 0.0, 1.0]])

    def derivative(lam, mu):
        return np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0]]) if mu == 0 else \
            np.array([[0.0, 1, 1], [1, 0, 0], [1, 0, 0]])

    fam = HamiltonianFamily(dim_hilbert=3, dim_param=2, evaluate=evaluate,
                            derivative=derivative)
    lam = np.array([0.5, 0.0])
    eig = biortho_eig(fam(lam))
    assert eig.energies[1] == eig.energies[2]
    geometry._check_gap(eig, [0])
    dh = np.stack([fam.deriv(lam, mu) for mu in range(2)])
    g = geometry._sos_qgt(eig, dh, np.arange(3) == 0).real
    g_ref = standard_qgt_oracle(fam, lam, n=0).real
    assert np.all(np.isfinite(g))
    assert np.max(np.abs(g - g_ref)) < 1e-12 * np.linalg.norm(g_ref)


def test_metric_perturbative_matches_fd_in_broken_phase():
    # complex energies: the SOS denominators are (E_n - E_m)^2, not |.|^2
    fam = pt_two_level_family()
    lam = np.array([0.4, 0.2])
    eig = biortho_eig(fam(lam))
    assert not eig.unbroken
    geometry._check_gap(eig, [0])
    dh = np.stack([fam.deriv(lam, mu) for mu in range(2)])
    g_pert = geometry._sos_qgt(eig, dh, np.arange(2) == 0).real
    g_fd = qgt(fam, lam, n=0).q.real
    assert np.max(np.abs(g_pert - g_fd)) < 1e-6 * np.linalg.norm(g_pert)


@pytest.mark.parametrize(
    "fam, lam, n",
    [
        (spin_half_family(), [0.3, -0.5, 0.8], 0),
        (spin_half_family(), [1.0, 0.2, -0.4], 1),
        (pt_two_level_family(), [0.1, 0.8], 0),  # unbroken
        (pt_two_level_family(), [0.4, 0.2], 0),  # broken
        (pt_two_level_family(), [0.3, -0.2], 0),  # broken
        (dk_family(ANISO, 0.8), [0.4, 0.2], 0),
    ],
    ids=["spin_half-n0", "spin_half-n1", "pt-unbroken", "pt-broken", "pt-broken-2", "dk"],
)
def test_sos_qgt_matches_fd_qgt(fam, lam, n):
    lam = np.asarray(lam, dtype=float)
    eig = biortho_eig(fam(lam))
    dh = np.stack([fam.deriv(lam, mu) for mu in range(fam.dim_param)])
    q_sos = geometry._sos_qgt(eig, dh, np.arange(fam.dim_hilbert) == n)
    q_fd = qgt(fam, lam, n=n).q
    scale = np.linalg.norm(q_sos)
    assert np.max(np.abs(q_sos.real - q_fd.real)) < 1e-6 * scale
    assert np.max(np.abs(q_sos.imag - q_fd.imag)) < 1e-6 * scale


# ------------------------------------------------- two-level response kernel

EPS = np.finfo(float).eps


def two_level_stack(seed, phase, size=24):
    """Seeded non-Hermitian H = S diag(E) S^-1, (size, 2, 2), with gaps of at
    least 0.5: E a real pair ("unbroken", or "real" with a real S too) or a
    complex-conjugate pair ("broken")."""
    rng = np.random.default_rng(seed)
    s = rng.normal(size=(size, 2, 2))
    if phase != "real":
        s = s + 1j * rng.normal(size=(size, 2, 2))
    x, y = rng.uniform(-1.0, 1.0, size), rng.uniform(0.25, 1.0, size)
    half = 1j * y if phase == "broken" else y
    e = np.stack([x - half, x + half], axis=-1)
    return (s * e[:, None, :]) @ np.linalg.inv(s)


def brute_force_coefficients(eig, dh):
    """C_mu[m, n] = <Phi_m|d_mu H|Psi_n>/(E_n - E_m), one element at a time,
    zero where E_n = E_m; and the rounding scale of each element,
    |Phi_m| |d_mu H| |Psi_n| / |E_n - E_m| (zero where C is)."""
    e = eig.energies.reshape(-1, 2)
    phi, psi = eig.left.reshape(-1, 2, 2), eig.right.reshape(-1, 2, 2)
    dh = np.broadcast_to(dh, (len(e),) + np.shape(dh)[-3:])
    c = np.zeros(dh.shape, complex)
    scale = np.zeros(dh.shape)
    for p in range(len(e)):
        for mu in range(dh.shape[1]):
            for m in range(2):
                for n in range(2):
                    gap = e[p, n] - e[p, m]
                    if gap == 0:
                        continue
                    c[p, mu, m, n] = np.vdot(phi[p, :, m], dh[p, mu] @ psi[p, :, n]) / gap
                    scale[p, mu, m, n] = (np.linalg.norm(phi[p, :, m]) * np.linalg.norm(dh[p, mu])
                                          * np.linalg.norm(psi[p, :, n]) / abs(gap))
    return c, scale


def two_level_case(phase, layout, seed=11):
    """An eigensystem and dH for ``layout``: a stack with one constant dH
    (d, 2, 2), a stack with a dH per point (P, d, 2, 2), or one matrix."""
    h = two_level_stack(seed, phase)
    rng = np.random.default_rng(seed + 1)
    real = phase == "real"

    def random_dh(shape):
        dh = rng.normal(size=shape + (2, 2))
        return dh if real else dh + 1j * rng.normal(size=shape + (2, 2))

    if layout == "single":
        return biortho_eig(h[0]), random_dh((3,))
    return biortho_eig(h), random_dh((3,) if layout == "constant" else (len(h), 3))


PHASES = ["unbroken", "broken", "real"]
LAYOUTS = ["constant", "per_point", "single"]


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_two_level_coefficients_match_a_brute_force_sum(phase, layout):
    # bound, set before measuring: each element within 64 eps of its
    # rounding scale |Phi_m| |dH| |Psi_n| / |E_n - E_m|
    eig, dh = two_level_case(phase, layout)
    assert (eig.right.dtype == float) == (phase == "real")
    c = geometry._coefficients(eig, dh)
    ref, scale = brute_force_coefficients(eig, dh)
    assert c.shape == np.broadcast_shapes(eig.energies.shape[:-1] + (1,), dh.shape[:-2]) + (2, 2)
    assert c.dtype == np.result_type(eig.right, dh)
    assert np.all(c[..., [0, 1], [0, 1]] == 0)
    assert np.all(np.abs(c.reshape(ref.shape) - ref) <= 64 * EPS * scale)


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("level", [0, 1])
def test_two_level_sos_qgt_matches_a_brute_force_sum(phase, layout, level):
    # Q_ab = x_ab + x_ba^* with x_ab = -1/2 C_a[n, m] C_b[m, n], m != n;
    # bound, set before measuring: 256 eps times the largest product of
    # two element scales at each point
    eig, dh = two_level_case(phase, layout)
    levels = np.arange(2) == level
    q = geometry._sos_qgt(eig, dh, levels)
    c, scale = brute_force_coefficients(eig, dh)
    m = 1 - level
    x = -0.5 * c[:, :, level, m, None] * c[:, None, :, m, level]
    ref = x + np.swapaxes(x, -1, -2).conj()
    bound = 256 * EPS * scale.max(axis=(1, 2, 3)) ** 2
    assert np.all(np.abs(q.reshape(ref.shape) - ref) <= bound[:, None, None])


def test_two_level_coefficients_are_zero_where_the_levels_meet():
    # an element with E_0 = E_1 exactly gets C = 0, as on the generic path,
    # and the others are unaffected
    eig, dh = two_level_case("unbroken", "per_point")
    energies = eig.energies.copy()
    energies[5] = 0.25
    met = dataclasses.replace(eig, energies=energies)
    c = geometry._coefficients(met, dh)
    assert np.all(c[5] == 0)
    keep = np.arange(len(energies)) != 5
    assert np.array_equal(c[keep], geometry._coefficients(eig, dh)[keep])


def test_two_level_flux_block_calls_no_inverse(monkeypatch):
    # the two-level dual basis is an adjugate: a curvature_flux block makes
    # one eigensolve and no inv call; three levels still invert
    calls = []
    eig, inv = np.linalg.eig, np.linalg.inv

    def counted(name, fn):
        def call(a):
            calls.append((name, np.shape(a)))
            return fn(a)
        return call

    monkeypatch.setattr(np.linalg, "eig", counted("eig", eig))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", inv))
    curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], resolution=6)
    assert calls == [("eig", (36, 2, 2))]

    gen_a = np.array([[0.0, 1.0, 0.0], [0.3, 0.0, 0.2j], [0.0, 0.1, 0.0]])
    gen_b = np.array([[0.2j, 0.0, 0.5], [0.0, 0.0, 0.0], [0.4, 0.0, -0.2j]])
    three = HamiltonianFamily(
        dim_hilbert=3, dim_param=2, batched=True,
        evaluate=lambda lam: (np.diag([0.0, 1.0, 2.0]) + lam[:, 0, None, None] * gen_a
                              + lam[:, 1, None, None] * gen_b),
        derivative=lambda lam, mu: np.broadcast_to((gen_a, gen_b)[mu], (len(lam), 3, 3)))
    calls.clear()
    curvature_flux(three, [0.0, 0.0], [0.1, 0.1], resolution=6)
    assert calls == [("eig", (36, 3, 3)), ("inv", (36, 3, 3))]


# ------------------------------------------------------------ berry loop


def test_loopspec_validation():
    with pytest.raises(ValueError):
        LoopSpec(vertices=np.zeros((3, 2)), level=0)
    open_loop = LoopSpec(vertices=np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]),
                         level=0)
    assert not open_loop.closed
    with pytest.raises(OpenLoop):
        berry_phase_loop(spin_half_family(), open_loop)
    # a 5e-6 gap is open, although it is within numpy's default rtol
    verts = circle_loop(0.8, 16)
    verts[-1, 0] += 5e-6
    gapped = LoopSpec(vertices=verts, level=0)
    assert not gapped.closed
    with pytest.raises(OpenLoop):
        berry_phase_loop(spin_half_family(), gapped)


class _PastTheEndCheck(Exception):
    """Raised by a family that ``adiabatic_phase`` reaches only once it has
    taken the path's ends as closed."""


def _refusing_family(lam):
    raise _PastTheEndCheck


# (first vertex, last vertex, closed): np.allclose(rtol=0, atol=1e-12)
_ENDS = [
    ([np.inf, 0.5], [np.inf, 0.5], True),  # equal infinities meet
    ([-np.inf, 0.5], [np.inf, 0.5], False),
    ([np.nan, 0.5], [np.nan, 0.5], False),  # a NaN meets nothing
    ([0.0, 0.5], [1e-12, 0.5], True),  # a gap of exactly 1e-12 is closed
    ([0.0, 0.5], [2e-12, 0.5], False),
    ([1e308, -1e308], [1e308, -1e308], True),  # no overflow warning
    ([1e308, -1e308], [1e308, -1e308 + 1e292], False),
]


@pytest.mark.parametrize("first, last, closed", _ENDS)
def test_loop_and_path_ends_meet_as_allclose_decides(first, last, closed):
    # pytest turns any RuntimeWarning into an error here
    verts = np.array([first, [0.1, 0.2], [0.3, 0.4], last])
    assert LoopSpec(vertices=verts, level=0).closed is closed
    assert closed == np.allclose(first, last, rtol=0.0, atol=1e-12)
    family = HamiltonianFamily(dim_hilbert=2, dim_param=2, evaluate=_refusing_family)
    path = PathSpec(curve=lambda t: np.array(first) if t == 0.0 else np.array(last),
                    duration=1.0, closed=True)
    if closed:
        with pytest.raises(_PastTheEndCheck):
            adiabatic_phase(family, path, n=0, n_steps=10)
    else:
        with pytest.raises(ValueError, match="ends differ"):
            adiabatic_phase(family, path, n=0, n_steps=10)


def test_ends_beyond_the_float_range_apart_are_open_without_a_warning():
    # 1e308 - (-1e308) overflows: the ends are apart, and no RuntimeWarning
    # (an error here) is raised on the way
    verts = np.array([[1e308, 0.5], [0.1, 0.2], [0.3, 0.4], [-1e308, 0.5]])
    loop = LoopSpec(vertices=verts, level=0)
    assert not loop.closed
    with pytest.raises(OpenLoop):
        berry_phase_loop(spin_half_family(), loop)


def test_berry_phase_solid_angle_both_levels():
    fam = spin_half_family()
    theta = 0.8
    solid = 2.0 * np.pi * (1.0 - np.cos(theta))
    verts = circle_loop(theta, 400)
    gamma_ground = berry_phase_loop(fam, LoopSpec(vertices=verts, level=0))
    gamma_excited = berry_phase_loop(fam, LoopSpec(vertices=verts, level=1))
    assert abs(gamma_ground - solid / 2.0) < 1e-3
    assert abs(gamma_excited + solid / 2.0) < 1e-3


def test_berry_phase_reversed_loop_flips_sign():
    fam = spin_half_family()
    verts = circle_loop(0.8, 200)
    gamma = berry_phase_loop(fam, LoopSpec(vertices=verts, level=0))
    gamma_rev = berry_phase_loop(fam, LoopSpec(vertices=verts[::-1], level=0))
    assert abs(gamma + gamma_rev) < 1e-12


def test_berry_phase_vertex_refinement_converges():
    fam = spin_half_family()
    solid = 2.0 * np.pi * (1.0 - np.cos(0.8))
    errs = []
    for m in (50, 100, 200):
        gamma = berry_phase_loop(fam, LoopSpec(vertices=circle_loop(0.8, m), level=0))
        errs.append(abs(gamma - solid / 2.0))
    assert errs[2] < errs[1] < errs[0]
    # second-order estimator: 2x vertices -> ~4x smaller error
    assert errs[0] / errs[1] > 3.0


def test_berry_phase_in_principal_branch():
    fam = spin_half_family()
    # a nearly-equatorial loop subtends almost 2*pi; half of it stays < pi
    verts = circle_loop(np.pi / 2 - 0.05, 600)
    gamma = berry_phase_loop(fam, LoopSpec(vertices=verts, level=0))
    assert -np.pi < gamma <= np.pi


@pytest.mark.parametrize("n_verts", [4, 7, 64])
def test_berry_phase_of_a_real_loop_around_a_degeneracy_is_plus_pi(n_verts):
    # H = l1 sigma_x + l2 sigma_z on the unit circle: real eigenvectors, so
    # the Wilson product is a negative real with a +0 imaginary part. Its
    # angle is +pi, so gamma = -angle is -pi until pinned to (-pi, pi]
    fam = HamiltonianFamily(2, 2, lambda lam: np.array([[lam[1], lam[0]], [lam[0], -lam[1]]]))
    az = np.linspace(0.0, 2.0 * np.pi, n_verts + 1)
    verts = np.stack([np.cos(az), np.sin(az)], axis=1)
    verts[-1] = verts[0]
    for level in (0, 1):
        assert berry_phase_loop(fam, LoopSpec(vertices=verts, level=level)) == np.pi


def test_berry_phase_refuses_a_loop_in_both_pt_phases():
    # the circle crosses the EP circle s^2 = a^2 + 0.09, as the flux grid
    # of the same region does
    fam = pt_two_level_family()
    az = np.linspace(0.0, 2.0 * np.pi, 257)
    verts = np.stack([0.1 * np.cos(az), 0.3 + 0.1 * np.sin(az)], axis=1)
    verts[-1] = verts[0]
    assert len(set(biortho_eig(fam(verts)).unbroken)) == 2
    with pytest.raises(Degenerate, match="PT-breaking"):
        berry_phase_loop(fam, LoopSpec(vertices=verts, level=0))
    with pytest.raises(Degenerate, match="PT-breaking"):
        curvature_flux(fam, [-0.1, 0.2], [0.1, 0.4])


# ---------------------------------------------------------------- stokes


def test_curvature_flux_zero_for_real_symmetric_family():
    fam = HamiltonianFamily(
        dim_hilbert=2,
        dim_param=2,
        evaluate=lambda lam: np.array(
            [[lam[1], lam[0]], [lam[0], -lam[1]]], dtype=complex
        ),
    )
    flux = curvature_flux(fam, [0.2, 0.2], [0.6, 0.6], resolution=8)
    assert abs(flux) < 1e-8


def test_stokes_small_rectangle_pt_model():
    fam = pt_two_level_family()
    lo = np.array([0.05, 0.80])
    hi = np.array([0.15, 0.90])
    xs = np.linspace(lo[0], hi[0], 64, endpoint=False)
    ys = np.linspace(lo[1], hi[1], 64, endpoint=False)
    verts = np.concatenate(
        [
            np.stack([xs, np.full_like(xs, lo[1])], axis=1),
            np.stack([np.full_like(ys, hi[0]), ys], axis=1),
            np.stack([xs[::-1] + (xs[1] - xs[0]), np.full_like(xs, hi[1])], axis=1),
            np.stack([np.full_like(ys, lo[0]), ys[::-1] + (ys[1] - ys[0])], axis=1),
            np.array([[xs[0], lo[1]]]),
        ]
    )
    gamma = berry_phase_loop(fam, LoopSpec(vertices=verts, level=0))
    flux = curvature_flux(fam, lo, hi, resolution=24)
    assert abs(flux) > 1e-5  # the check must not be vacuous
    assert abs(flux + gamma) < 1e-5


def test_stokes_spin_half_off_default_plane():
    # rectangle in the (lam_2, lam_3) plane at lam_1 = 0.6
    fam = spin_half_family()
    lo = np.array([0.6, 0.1, 0.2])
    hi = np.array([0.6, 0.5, 0.7])
    ys = np.linspace(lo[1], hi[1], 64, endpoint=False)
    zs = np.linspace(lo[2], hi[2], 64, endpoint=False)
    dy, dz = ys[1] - ys[0], zs[1] - zs[0]
    boundary = np.concatenate(
        [
            np.stack([ys, np.full_like(ys, lo[2])], axis=1),
            np.stack([np.full_like(zs, hi[1]), zs], axis=1),
            np.stack([ys[::-1] + dy, np.full_like(ys, hi[2])], axis=1),
            np.stack([np.full_like(zs, lo[1]), zs[::-1] + dz], axis=1),
            np.array([[lo[1], lo[2]]]),
        ]
    )
    verts = np.column_stack([np.full(len(boundary), lo[0]), boundary])
    gamma = berry_phase_loop(fam, LoopSpec(vertices=verts, level=0))
    flux = curvature_flux(fam, lo, hi, plane=(1, 2), resolution=24)
    assert abs(flux) > 1e-2  # the check must not be vacuous
    assert abs(flux + gamma) < 1e-5


@pytest.mark.parametrize("resolution", [8, 16, 32])
def test_curvature_flux_refuses_grid_across_exceptional_line(resolution):
    # the rectangle crosses the EP circle s^2 = a^2 + 0.09
    fam = pt_two_level_family()
    with pytest.raises(Degenerate):
        curvature_flux(fam, [0.05, 0.2], [0.25, 0.5], resolution=resolution)


def test_curvature_flux_one_eigensolve_per_block(monkeypatch):
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("curvature_flux must not difference eigenvectors")

    monkeypatch.setattr(np.linalg, "eig", counted)
    monkeypatch.setattr(geometry, "_projector_derivatives", forbidden)
    fam = pt_two_level_family()
    curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=6)
    assert shapes == [(36, 2, 2)]  # the whole grid is one block
    shapes.clear()
    # the stack budget of 512 matrices // 30 = 17 rows per block: a full
    # block, then the 13 rows left
    assert biortho._per_stack(30) == 17
    curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=30)
    assert shapes == [(17 * 30, 2, 2), (13 * 30, 2, 2)]
    shapes.clear()
    # a row longer than the budget is still solved whole
    monkeypatch.setattr(biortho, "_STACK", 4)
    curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=6)
    assert shapes == [(6, 2, 2)] * 6


def test_curvature_flux_steps_each_block_as_one_stack(monkeypatch):
    calls = []
    default_step = biortho.default_step

    def counted(lam):
        calls.append(np.shape(lam))
        return default_step(lam)

    monkeypatch.setattr(biortho, "default_step", counted)
    fam = dataclasses.replace(load_bundled_model("pt_two_level"), derivative=None)
    curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=6)
    assert calls == [(36, 2)] * 2  # one deriv call per axis on the whole block


def _flux_per_row(family, lo, hi, resolution):
    """curvature_flux as one stacked solve per grid row, in the (0, 1) plane."""
    xs = np.linspace(lo[0], hi[0], resolution + 1)
    ys = np.linspace(lo[1], hi[1], resolution + 1)
    row = np.column_stack([np.zeros(resolution), 0.5 * (ys[:-1] + ys[1:])])
    levels = np.arange(family.dim_hilbert) == 0
    total = 0.0
    for x in 0.5 * (xs[:-1] + xs[1:]):
        row[:, 0] = x
        eig = biortho_eig(family(row))
        dh = np.stack([family.deriv(row, a) for a in (0, 1)], axis=-3)
        total += 2.0 * float(np.sum(geometry._sos_qgt(eig, dh, levels)[:, 0, 1].imag))
    return total * (xs[1] - xs[0]) * (ys[1] - ys[0])


@pytest.mark.parametrize("resolution", [30, 100])
def test_curvature_flux_in_blocks_matches_a_per_row_reference(resolution):
    # at 30 the rows do not fill the last block (17 + 13 rows)
    fam = pt_two_level_family()
    lo, hi = [0.05, 0.8], [0.15, 0.9]
    ref = _flux_per_row(fam, lo, hi, resolution)
    flux = curvature_flux(fam, lo, hi, resolution=resolution)
    assert abs(flux - ref) <= 1e-14 * abs(ref)


def test_curvature_flux_of_the_model_file_matches_the_analytic_family():
    # the closed form, called one point at a time, gives H and dH equal in
    # value to the model file's, so only the round-off of the flux sum may
    # separate the two (bound fixed before measuring)
    lo, hi = [0.05, 0.8], [0.15, 0.9]
    ref = curvature_flux(closed_forms.family(closed_forms.pt_two_level, 2), lo, hi,
                         resolution=32)
    flux = curvature_flux(load_bundled_model("pt_two_level"), lo, hi, resolution=32)
    assert abs(flux - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("resolution", [64, 128])
def test_curvature_flux_of_the_qwz_model_is_its_chern_number(resolution):
    # the non-Hermitian QWZ model at m = 1 has Chern number -1 in the loop
    # phase sign, so the flux over the Brillouin zone is +2 pi. A central
    # difference dH left it 4e-9 short; the model file's exact dH leaves
    # the round-off of the sum (bound fixed before measuring)
    qwz = parse_model(closed_forms.QWZ_MODEL)
    flux = curvature_flux(qwz, [-np.pi, -np.pi], [np.pi, np.pi], resolution=resolution)
    assert abs(flux - 2 * np.pi) <= 1e-12


def test_curvature_flux_peak_memory_stays_bounded():
    # one block of ~512 points at a time; a single stack over the grid
    # would peak near 13 MB
    fam = pt_two_level_family()
    curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=8)  # warm caches
    tracemalloc.start()
    try:
        curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("plane", [(0, 0), (1, 1), (0, 2), (2, 1), (-1, 0)])
def test_curvature_flux_rejects_bad_plane(plane):
    with pytest.raises(ValueError, match="plane must name two distinct axes"):
        curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], plane, resolution=4)


@pytest.mark.parametrize("plane, match", [
    ((0.0, 1), "plane axes must be integers"),
    ((True, 0), "plane axes must be integers"),
    ((0, np.float64(1.0)), "plane axes must be integers"),
    ((0, 1, 2), "plane must name two axes"),
    (0, "plane must name two axes"),
])
def test_curvature_flux_refuses_a_plane_not_of_two_integer_axes(plane, match):
    with pytest.raises(ValueError, match=match):
        curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], plane, resolution=4)


@pytest.mark.parametrize("lo, hi, name", [
    ([0.1], [0.15, 0.9], "lam_min"),
    ([0.05, 0.8], [0.15], "lam_max"),
    ([0.05, 0.8, 0.0], [0.15, 0.9], "lam_min"),
    (0.05, [0.15, 0.9], "lam_min"),
])
def test_curvature_flux_refuses_corners_of_the_wrong_shape(lo, hi, name):
    with pytest.raises(ValueError, match=rf"{name} must have shape \(2,\)"):
        curvature_flux(pt_two_level_family(), lo, hi, resolution=4)


@pytest.mark.parametrize("resolution", [0, -3])
def test_curvature_flux_rejects_resolution_below_one(resolution):
    with pytest.raises(ValueError, match="resolution must be at least 1"):
        curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], resolution=resolution)


@pytest.mark.parametrize("resolution", [2.5, 4.0, True, np.float64(4.0)])
def test_curvature_flux_refuses_a_non_integer_resolution(resolution):
    with pytest.raises(ValueError, match="resolution must be an integer"):
        curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], resolution=resolution)


def test_curvature_flux_takes_a_numpy_integer_resolution():
    fam = pt_two_level_family()
    ref = curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=4)
    assert curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=np.int64(4)) == ref


# -------------------------------------------------------------- fidelity


def test_fidelity_identity_and_gauge_invariance():
    fam = dk_family(ANISO, 0.8)
    eig_a = biortho_eig(fam([0.4, 0.2]))
    eig_b = biortho_eig(fam([0.45, 0.18]))
    assert abs(fidelity(eig_a, eig_a) - 1.0) < 1e-12

    f = fidelity(eig_a, eig_b)
    assert 0.0 < f < 1.0
    rng = np.random.default_rng(9)
    scales = rng.normal(size=4) + 1j * rng.normal(size=4)
    scales += 2.0 * np.sign(scales.real)
    f_gauged = fidelity(gauge_transform(eig_a, scales), eig_b)
    assert abs(f - f_gauged) < 1e-12


@pytest.mark.parametrize("a, b", [("stack", "single"), ("single", "stack"),
                                  ("stack", "stack"), ("single", "two_level")])
def test_fidelity_refuses_all_but_two_single_eigensystems_of_one_size(a, b):
    fam = dk_family(ANISO, 0.8)
    eigs = {"single": biortho_eig(fam([0.4, 0.2])),
            "stack": biortho_eig(fam([[0.4, 0.2], [0.45, 0.18]])),
            "two_level": biortho_eig(pt_two_level_family()([0.15, 0.85]))}
    with pytest.raises(ValueError, match="two single eigensystems of the same size"):
        fidelity(eigs[a], eigs[b])


def test_fidelity_quadratic_expansion():
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    g = qgt(fam, lam, n=0).q.real
    eig_a = biortho_eig(fam(lam))
    direction = np.array([0.6, -0.8])

    def remainder(delta):
        eig_b = biortho_eig(fam(lam + delta))
        return abs(2.0 * (1.0 - fidelity(eig_a, eig_b)) - float(delta @ g @ delta))

    r1 = remainder(1e-3 * direction)
    r2 = remainder(5e-4 * direction)
    assert r1 / max(r2, 1e-300) > 5.0  # third-order remainder


# --------------------------------------------------------- O operators


def test_o_operators_generate_derivatives():
    # The closed-form generators against the difference route: as
    # i d_mu Psi_n = O_mu Psi_n and -i d_mu <Phi_n| = <Phi_n| O_mu, the
    # projector moves as d_mu P_n = -i [O_mu, P_n]. The central difference
    # of P_n is off by h^2/6 |d^3 P_n|, 2.1e-9 at the default step in the
    # broken phase; a quarter of that step brings it to 1.2e-10.
    lam = np.array([0.4, 0.2])
    for fam in (dk_family(ANISO, 0.8), pt_two_level_family()):  # the latter PT-broken there
        eig, _, dp = geometry._projector_derivatives(fam, lam, default_step(lam) / 4.0)
        ops = o_operators(fam, lam)
        for mu in range(2):
            for n in range(fam.dim_hilbert):
                p = np.outer(eig.right[:, n], eig.left[:, n].conj())
                rhs = -1j * (ops.o_full[mu] @ p - p @ ops.o_full[mu])
                assert np.max(np.abs(dp[mu, n] - rhs)) < 1e-9 * max(np.max(np.abs(rhs)), 1.0)


def test_o_operators_and_variance_metric_solve_one_matrix(monkeypatch):
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("the generators must not difference eigenvectors")

    monkeypatch.setattr(np.linalg, "eig", counted)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(geometry, "_projector_derivatives", forbidden)
    fam = dk_family(ANISO, 0.8)
    for call in (o_operators, variance_metric):
        shapes.clear()
        call(fam, np.array([0.4, 0.2]))
        assert shapes == [(1, 4, 4)]  # one matrix, as a stack of one


@pytest.mark.parametrize("call", [o_operators, variance_metric])
def test_generators_refuse_a_stack_of_points(monkeypatch, call):
    # a 2-point stack gave o_operators fields of shape (2, 2, 2, 2) and
    # variance_metric an untyped einsum error
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counted)
    with pytest.raises(ValueError, match=r"point must have shape \(2,\)"):
        call(pt_two_level_family(), [[0.15, 0.85], [0.2, 0.9]])
    assert shapes == []


@pytest.mark.parametrize("call", [o_operators, variance_metric])
def test_generators_refuse_meeting_levels(call):
    with pytest.raises(Degenerate):
        call(spin_half_family(), np.zeros(3))


def test_o_split_parts_w_hermitian():
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    ops = o_operators(fam, lam)
    w = build_W(biortho_eig(fam(lam)))
    for mu in range(2):
        for part in (ops.o_a[mu], ops.o_b[mu]):
            x = w @ part
            assert np.max(np.abs(x - x.conj().T)) < 1e-6 * max(np.max(np.abs(x)), 1.0)


def test_o_b_vanishes_for_hermitian_family():
    fam = spin_half_family()
    ops = o_operators(fam, sphere_point(1.0, 0.7))
    assert np.max(np.abs(ops.o_b)) < 1e-8
    assert np.max(np.abs(ops.o_a - ops.o_full)) < 1e-8


def test_o_operators_constant_family_zero():
    fam = HamiltonianFamily(
        dim_hilbert=2,
        dim_param=1,
        evaluate=lambda lam: np.array([[1.0, 0.3j], [0.1, -1.0]], dtype=complex),
    )
    ops = o_operators(fam, np.array([0.5]))
    assert np.max(np.abs(ops.o_full)) < 1e-8
    assert np.max(np.abs(ops.o_b)) < 1e-8


def test_one_level_family_has_zero_generators_and_unit_metric():
    # N = 1: no pair of levels, so the response C, the generators and the
    # variance metric are exactly zero, and W = |Phi_0|^2 = 1
    fam = HamiltonianFamily(dim_hilbert=1, dim_param=2,
                            evaluate=lambda lam: np.array([[lam[0] + 1j * lam[1]]]))
    lam = np.array([0.4, -0.3])
    ops = o_operators(fam, lam)
    for field in (ops.o_full, ops.o_a, ops.o_b):
        np.testing.assert_array_equal(field, np.zeros((2, 1, 1)))
    np.testing.assert_array_equal(variance_metric(fam, lam), np.zeros((2, 2)))
    np.testing.assert_array_equal(build_W(biortho_eig(fam(lam))), [[1.0]])


def test_variance_metric_matches_qgt():
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    g_var = variance_metric(fam, lam)
    g_q = qgt(fam, lam, n=0).q.real
    assert np.max(np.abs(g_var - g_q)) < 1e-8 * np.linalg.norm(g_q)


# ---------------------------------------------------- interval classify


def test_classify_interval():
    g = np.diag([1.0, -1.0])
    ds2, kind = classify_interval(g, [1.0, 0.0])
    assert ds2 == 1.0 and kind == "spacelike"
    ds2, kind = classify_interval(g, [0.0, 2.0])
    assert ds2 == -4.0 and kind == "timelike"
    ds2, kind = classify_interval(g, [1.0, 1.0])
    assert kind == "lightlike"
    # the round-off band scales with the inputs
    ds2, kind = classify_interval(g, [1.0, 1.0 + 1e-14])
    assert kind == "lightlike"
    ds2, kind = classify_interval(g, [1.0, 1.1])
    assert kind == "timelike"


@pytest.mark.parametrize("g, dlam", [
    (np.eye(2), [np.nan, 0.0]),
    (np.diag([np.inf, 1.0]), [1.0, 0.0]),  # its round-off band was Inf too
    (np.eye(2), [1.0, 0.0, 0.0]),
    (np.eye(2), [[1.0, 0.0]]),
    (np.ones((2, 3)), [1.0, 0.0]),
    (np.ones(2), [1.0, 0.0]),
    (1e200 * np.eye(2), [1e100, 0.0]),  # ds2 overflowed to Inf, with a warning
])
def test_classify_interval_refuses_non_finite_or_misshapen_input(g, dlam):
    with pytest.raises(ValueError, match="finite|shape"):
        classify_interval(g, dlam)


def refusing_family():
    def evaluate(points):
        raise AssertionError("the family must not be called")

    return HamiltonianFamily(dim_hilbert=2, dim_param=2, evaluate=evaluate,
                             derivative=lambda points, mu: evaluate(points), batched=True)


@pytest.mark.parametrize("call", [
    lambda fam, lam: qgt(fam, lam),
    o_operators,
    variance_metric,
], ids=["qgt", "o_operators", "variance_metric"])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_point_raises_before_any_family_call(call, bad):
    # qgt used to warn "invalid value encountered in multiply" on the
    # stencil before the eigensolve refused it
    with pytest.raises(NonFinite, match="point must be finite"):
        call(refusing_family(), [bad, 0.9])
    with pytest.raises(NonFinite):
        call(pt_two_level_family(), [bad, 0.9])


@pytest.mark.parametrize("lo, hi, match", [
    ([0.05, 0.8], [np.inf, 0.9], "lam_max must be finite"),
    ([np.nan, 0.8], [0.15, 0.9], "lam_min must be finite"),
    # finite corners, but the spacing or the midpoint sums overflow
    ([-1e308, 0.8], [1e308, 0.9], "midpoints or cell area"),
    ([0.05, 0.8], [1.7e308, 0.9], "midpoints or cell area"),
    ([0.05, 0.8], [0.15, 1.7e308], "midpoints or cell area"),
])
def test_curvature_flux_refuses_non_finite_grids_before_any_family_call(lo, hi, match):
    for fam in (refusing_family(), pt_two_level_family()):
        with pytest.raises(NonFinite, match=match):
            curvature_flux(fam, lo, hi, resolution=4)


def test_curvature_flux_calls_a_batched_family_once_per_block():
    calls = []
    fam = pt_two_level_family()

    def evaluate(points):
        calls.append(("evaluate", len(points)))
        return fam.evaluate(points)

    def derivative(points, mu):
        calls.append(("derivative", len(points)))
        return fam.derivative(points, mu)

    counted = dataclasses.replace(fam, evaluate=evaluate, derivative=derivative)
    flux = curvature_flux(counted, [0.05, 0.8], [0.15, 0.9], resolution=6)
    assert flux == curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=6)
    assert calls == [("evaluate", 36), ("derivative", 36), ("derivative", 36)]
