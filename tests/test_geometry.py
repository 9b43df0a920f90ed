import dataclasses

import numpy as np
import pytest

from ptqgt import (
    Degenerate,
    FieldPoint,
    HamiltonianFamily,
    LoopSpec,
    OpenLoop,
    berry_curvature,
    berry_phase_loop,
    biortho_eig,
    classify_interval,
    curvature_flux,
    dk_family,
    fidelity,
    gauge_transform,
    geometry,
    metric_perturbative,
    metric_tensor,
    o_operators,
    param_derivatives,
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
    omega = berry_curvature(tensor)
    g = metric_tensor(tensor)
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


@pytest.mark.parametrize("name, lam", [("pt_two_level", [0.1, 0.8]),
                                       ("spin_half", [0.3, -0.2, 0.7])])
def test_qgt_evaluates_only_its_stencil(monkeypatch, name, lam):
    model = load_bundled_model(name)  # .model families have no analytic derivative
    calls = []

    def evaluate(point):
        calls.append(point)
        return model.evaluate(point)

    def forbidden(*args, **kwargs):
        raise AssertionError("qgt must not differentiate H")

    monkeypatch.setattr(HamiltonianFamily, "deriv", forbidden)
    fam = HamiltonianFamily(model.dim_hilbert, model.dim_param, evaluate)
    qgt(fam, np.array(lam), n=0)
    assert len(calls) == 2 * model.dim_param + 1


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
    bundle = param_derivatives(fam, [0.4, 0.2])
    psi, phi = bundle.eig.right, bundle.eig.left
    q = geometry._fd_qgt(psi, phi, bundle.dpsi, bundle.dphi)
    assert q.shape == (4, 2, 2)
    for n in range(4):
        dpsi, dphi = bundle.dpsi[:, :, n], bundle.dphi[:, :, n]
        x = np.array([[np.vdot(dphi[mu], dpsi[nu])
                       - np.vdot(dphi[mu], psi[:, n]) * np.vdot(phi[:, n], dpsi[nu])
                       for nu in range(2)] for mu in range(2)])
        ref = 0.5 * (x + x.conj().T)
        assert np.max(np.abs(q[n] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("call", [
    lambda fam, lam, bundle: qgt(fam, lam, n=0, bundle=bundle),
    lambda fam, lam, bundle: o_operators(fam, lam, bundle=bundle),
])
def test_no_bundle_keyword(call):
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    with pytest.raises(TypeError):
        call(fam, lam, param_derivatives(fam, lam))


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


def test_metric_perturbative_matches_fd_on_dk():
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    eig = biortho_eig(fam(lam))
    dh = [fam.deriv(lam, mu) for mu in range(2)]
    g_pert = metric_perturbative(eig, dh)
    g_fd = qgt(fam, lam, n=0).q.real
    assert np.max(np.abs(g_pert - g_fd)) < 1e-6 * np.linalg.norm(g_pert)


def test_metric_perturbative_matches_fd_in_broken_phase():
    # complex energies: the SOS denominators are (E_n - E_m)^2, not |.|^2
    fam = pt_two_level_family()
    lam = np.array([0.4, 0.2])
    eig = biortho_eig(fam(lam))
    assert not eig.unbroken
    g_pert = metric_perturbative(eig, [fam.deriv(lam, mu) for mu in range(2)])
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


def test_curvature_flux_one_eigensolve_per_row(monkeypatch):
    shapes = []
    eig = np.linalg.eig

    def counted(a):
        shapes.append(np.shape(a))
        return eig(a)

    def forbidden(*args, **kwargs):
        raise AssertionError("curvature_flux must not difference eigenvectors")

    monkeypatch.setattr(np.linalg, "eig", counted)
    monkeypatch.setattr(geometry, "gauge_fix", forbidden)
    monkeypatch.setattr(geometry, "param_derivatives", forbidden)
    curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], resolution=6)
    assert shapes == [(6, 2, 2)] * 6


def test_curvature_flux_calls_default_step_once_per_row(monkeypatch):
    calls = []
    default_step = geometry.default_step

    def counted(lam):
        calls.append(np.shape(lam))
        return default_step(lam)

    monkeypatch.setattr(geometry, "default_step", counted)
    fam = load_bundled_model("pt_two_level")  # no analytic derivative
    curvature_flux(fam, [0.05, 0.8], [0.15, 0.9], resolution=6)
    assert calls == [(6, 2)] * 6


@pytest.mark.parametrize("plane", [(0, 0), (1, 1), (0, 2), (2, 1), (-1, 0)])
def test_curvature_flux_rejects_bad_plane(plane):
    with pytest.raises(ValueError, match="plane must name two distinct axes"):
        curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], plane, resolution=4)


@pytest.mark.parametrize("resolution", [0, -3])
def test_curvature_flux_rejects_resolution_below_one(resolution):
    with pytest.raises(ValueError, match="resolution must be at least 1"):
        curvature_flux(pt_two_level_family(), [0.05, 0.8], [0.15, 0.9], resolution=resolution)


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
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    bundle = param_derivatives(fam, lam)  # the same bits o_operators differences
    ops = o_operators(fam, lam)
    # i d_mu Psi_n = O_mu Psi_n by construction of the generator
    for mu in range(2):
        lhs = 1j * bundle.dpsi[mu]
        rhs = ops.o_full[mu] @ bundle.eig.right
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(np.max(np.abs(lhs)), 1.0)


def test_o_split_parts_w_hermitian():
    fam = dk_family(ANISO, 0.8)
    lam = np.array([0.4, 0.2])
    ops = o_operators(fam, lam)
    w = param_derivatives(fam, lam).w
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


def test_curvature_flux_calls_a_batched_family_once_per_row():
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
    assert calls == [("evaluate", 6), ("derivative", 6), ("derivative", 6)] * 6
