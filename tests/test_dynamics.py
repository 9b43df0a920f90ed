import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize

from ptqgt import (
    HamiltonianFamily,
    NonFinite,
    NotAdiabatic,
    PathSpec,
    StepTooLarge,
    adiabatic_phase,
    biortho_eig,
    build_W,
    dynamics,
    evolve,
    gauge_fix,
    k_field,
)
from ptqgt.families import pt_two_level_family, spin_half_family


def flat_pt_family():
    """Balanced gain/loss dimer [[i a, s], [s, -i a]] over lam = (a, s)."""

    def evaluate(lam):
        a, s = lam
        return np.array([[1j * a, s], [s, -1j * a]], dtype=complex)

    return HamiltonianFamily(dim_hilbert=2, dim_param=2, evaluate=evaluate)


def circle_path(center, radius, tau):
    center = np.asarray(center, dtype=float)

    def curve(t):
        ang = 2.0 * np.pi * t / tau
        return center + radius * np.array([np.cos(ang), np.sin(ang)])

    return PathSpec(curve=curve, duration=tau, closed=True)


# ------------------------------------------------------------- PathSpec


def test_pathspec_validation_and_sampling():
    with pytest.raises(ValueError):
        PathSpec(curve=lambda t: np.zeros(2), duration=0.0)
    times = np.linspace(0.0, 2.0, 21)
    points = np.stack([times, times**2], axis=1)
    path = PathSpec.from_samples(times, points)
    assert path.duration == 2.0
    assert np.allclose(path.at(1.0), [1.0, 1.0])
    # linear interpolation between samples
    mid = path.at(1.05)
    assert abs(mid[0] - 1.05) < 1e-12
    assert abs(mid[1] - 0.5 * (1.0**2 + 1.1**2)) < 1e-12
    with pytest.raises(ValueError):
        PathSpec.from_samples(times, points[:-1])


@pytest.mark.parametrize("times", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
def test_pathspec_from_samples_refuses_unordered_times(times):
    with pytest.raises(ValueError, match="strictly increasing"):
        PathSpec.from_samples(times, np.zeros((3, 2)))


def test_pathspec_at_returns_a_fresh_array():
    shared = np.array([0.15, 0.85])
    path = PathSpec(curve=lambda t: shared, duration=1.0)
    point = path.at(0.5)
    point[...] = 7.0
    assert np.array_equal(path.at(0.5), [0.15, 0.85])


def test_pathspec_at_array_matches_per_time():
    times = np.linspace(0.0, 2.0, 21)
    paths = [circle_path([0.15, 0.85], 0.05, 2.0),
             PathSpec.from_samples(times, np.stack([times, times**2, -times], axis=1))]
    ts = np.array([[0.0, 0.37, 1.05], [1.5, 1.999, 2.0]])
    for path in paths:
        points = path.at(ts)
        assert points.shape == ts.shape + path.at(0.0).shape
        for idx in np.ndindex(ts.shape):
            assert np.array_equal(points[idx], path.at(ts[idx]))
    assert np.array_equal(paths[0].at(np.asarray(0.37)), paths[0].at(0.37))


# -------------------------------------------------------------- k field


def test_k_field_zero_for_hermitian_family():
    fam = spin_half_family()
    path = circle_path([0.0, 0.0], 0.3, 10.0)

    def curve3(t):
        xy = path.at(t)
        return np.array([xy[0], xy[1], 1.0])

    path3 = PathSpec(curve=curve3, duration=10.0, closed=True)
    k = k_field(fam, path3, 3.0, 1e-3)
    assert np.max(np.abs(k)) < 1e-8


def test_k_field_zero_for_static_path():
    fam = flat_pt_family()
    path = PathSpec(curve=lambda t: np.array([0.3, 1.0]), duration=5.0)
    k = k_field(fam, path, 2.0, 1e-3)
    assert np.max(np.abs(k)) < 1e-10


def test_k_field_w_hermiticity():
    # W K = -1/2 dW/dt is Hermitian, so W K - K^dag W = 0
    fam = flat_pt_family()
    path = circle_path([0.3, 1.0], 0.1, 10.0)
    t = 2.7
    k = k_field(fam, path, t, 1e-4)
    w = build_W(biortho_eig(fam(path.at(t)))).matrix
    x = w @ k
    assert np.max(np.abs(x - x.conj().T)) < 1e-8
    assert np.max(np.abs(k)) > 1e-4  # non-trivial on this path


# --------------------------------------------------------------- evolve


def test_static_eigenstate_accumulates_dynamical_phase_only():
    fam = flat_pt_family()
    lam0 = np.array([0.3, 1.0])
    path = PathSpec(curve=lambda t: lam0, duration=4.0, closed=True)
    eig = biortho_eig(fam(lam0))
    res = evolve(fam, path, eig.right[:, 0], n_steps=400, track_level=0)
    assert np.max(np.abs(res.w_norms - 1.0)) < 1e-9
    expected_beta = -float(eig.energies[0].real) * 4.0
    assert abs(res.dynamical_phase - expected_beta) < 1e-8
    assert abs(res.geometric_phase) < 1e-8


def test_pairwise_w_inner_product_conserved():
    fam = flat_pt_family()
    path = circle_path([0.3, 1.0], 0.1, 20.0)
    eig0 = biortho_eig(fam(path.at(0.0)))
    res0 = evolve(fam, path, eig0.right[:, 0], n_steps=2000)
    res1 = evolve(fam, path, eig0.right[:, 1], n_steps=2000)
    overlaps = []
    for i in (0, 500, 1000, 2000):
        w = build_W(biortho_eig(fam(path.at(res0.times[i])))).matrix
        overlaps.append(np.vdot(res0.states[i], w @ res1.states[i]))
    spread = max(abs(o - overlaps[0]) for o in overlaps)
    assert abs(overlaps[0]) < 1e-6  # starts W-orthogonal
    assert spread < 1e-7


def test_rk4_order_of_convergence():
    # Hermitian family: W = I so K = 0 and the generator is exact, which
    # isolates the integrator's own fourth-order error
    fam = spin_half_family()
    tau = 5.0

    def curve(t):
        ang = 2.0 * np.pi * t / tau
        return np.array([0.6 * np.cos(ang), 0.6 * np.sin(ang), 0.8])

    path = PathSpec(curve=curve, duration=tau, closed=True)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    ref = evolve(fam, path, psi0, n_steps=3200).states[-1]
    err = []
    for n_steps in (100, 200):
        out = evolve(fam, path, psi0, n_steps=n_steps).states[-1]
        err.append(np.linalg.norm(out - ref))
    # fourth order: halving dt cuts the error ~16x (allow margin)
    assert err[0] / err[1] > 10.0


def test_evolution_converges_with_k_field():
    # on a non-Hermitian loop the K probe adds an O(dt^2) term; the
    # end state still converges as the step shrinks
    fam = pt_two_level_family()
    path = circle_path([0.15, 0.85], 0.05, 5.0)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    ref = evolve(fam, path, psi0, n_steps=3200).states[-1]
    err = []
    for n_steps in (200, 400):
        out = evolve(fam, path, psi0, n_steps=n_steps).states[-1]
        err.append(np.linalg.norm(out - ref))
    assert err[1] < err[0] / 3.0


def test_step_too_large_raised():
    fam = pt_two_level_family()
    path = circle_path([0.15, 0.85], 0.05, 50.0)
    eig0 = biortho_eig(fam(path.at(0.0)))
    with pytest.raises(StepTooLarge):
        evolve(fam, path, eig0.right[:, 0], n_steps=12, drift_tol=1e-10)


def test_not_adiabatic_raised_near_exceptional_circle():
    fam = pt_two_level_family()
    # the loop starts on the unbroken side of the exceptional circle
    # s^2 = a^2 + 0.09 (s^2 - a^2 - 0.09 = 0.03 at the start) and runs into
    # it, where the levels coalesce; finite-speed transport cannot follow
    # the tracked eigenstate there
    path = circle_path([0.3, 0.65], 0.25, 0.3)
    eig0 = biortho_eig(fam(path.at(0.0)))
    assert eig0.unbroken
    with pytest.raises(NotAdiabatic):
        evolve(fam, path, eig0.right[:, 0], n_steps=2000, track_level=0,
               drift_tol=np.inf)


def nan_below(s_min):
    """pt_two_level, but all-NaN wherever s < s_min."""
    fam = pt_two_level_family()

    def evaluate(lam):
        h = fam(lam)
        return np.full_like(h, np.nan) if lam[1] < s_min else h

    return HamiltonianFamily(dim_hilbert=2, dim_param=2, evaluate=evaluate)


def test_not_adiabatic_wins_over_later_nan():
    # the loop of test_not_adiabatic_raised_near_exceptional_circle, with
    # NaN from t ~ 0.221 on: after NotAdiabatic fires at t ~ 0.2188, but in
    # the same chunk of steps, so the chunk's stacked work fails first
    fam = nan_below(0.401)
    path = circle_path([0.3, 0.65], 0.25, 0.3)
    eig0 = biortho_eig(fam(path.at(0.0)))
    with pytest.raises(NotAdiabatic, match="t=0.2188"):
        evolve(fam, path, eig0.right[:, 0], n_steps=2000, track_level=0,
               drift_tol=np.inf)


def test_non_finite_raised_at_first_nan_step():
    # the same loop with NaN from t ~ 0.215 on, before the NotAdiabatic
    # point: NonFinite at the first step whose stack holds a NaN, which is
    # the first step whose latest K probe, i dt + dt + dt/10, has s < s_min
    s_min, n_steps = 0.4055, 2000
    fam = nan_below(s_min)
    base = circle_path([0.3, 0.65], 0.25, 0.3)
    seen = []

    def curve(t):
        seen.append(t)
        return base.at(t)

    path = PathSpec(curve=curve, duration=0.3, closed=True)
    dt = path.duration / n_steps
    eig0 = biortho_eig(fam(path.at(0.0)))
    with pytest.raises(NonFinite):
        evolve(fam, path, eig0.right[:, 0], n_steps=n_steps, track_level=0,
               drift_tol=np.inf)
    latest = np.arange(n_steps) * dt + dt + dt / 10.0
    expected = next(i for i, t in enumerate(latest) if base.at(t)[1] < s_min)
    # every time step i evaluates lies in [i + 0.4, i + 1.1] dt
    assert round(seen[-1] / dt - 0.75) == expected


def evolve_per_step(family, path, psi0, n_steps, level):
    """Reference RK4: k_field and gauge_fix once per step, no stacking."""
    psi = np.asarray(psi0, dtype=complex).copy()
    dt = path.duration / n_steps
    anchor = biortho_eig(family(path.at(0.0)))
    states, w_norms, alphas, energies = [], [], [], []

    def record(t, psi):
        eig = biortho_eig(family(path.at(t)))
        eig = gauge_fix(anchor, eig) if t > 0 else eig
        states.append(psi)
        w_norms.append(float(np.vdot(psi, build_W(eig).matrix @ psi).real))
        alphas.append(np.angle(np.vdot(eig.left[:, level], psi)))
        energies.append(eig.energies[level].real)

    record(0.0, psi)
    k_start = k_field(family, path, 0.0, dt / 10.0)
    for i in range(n_steps):
        t = i * dt
        k_mid, k_end = k_field(family, path, [t + 0.5 * dt, t + dt], dt / 10.0)
        g_mid = -1j * family(path.at(t + 0.5 * dt)) + k_mid
        k1 = (-1j * family(path.at(t)) + k_start) @ psi
        k2 = g_mid @ (psi + 0.5 * dt * k1)
        k3 = g_mid @ (psi + 0.5 * dt * k2)
        k4 = (-1j * family(path.at(t + dt)) + k_end) @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k_start = k_end
        record((i + 1) * dt, psi)
    beta = -np.trapezoid(energies, np.arange(n_steps + 1) * dt)
    total = np.unwrap(alphas)[-1] - alphas[0]
    return np.array(states), np.array(w_norms), beta, total - beta


@pytest.mark.parametrize("n_steps", [100, dynamics._CHUNK + 3])
def test_evolve_matches_per_step_reference(n_steps):
    fam = pt_two_level_family()
    path = circle_path([0.15, 0.85], 0.05, 5.0)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    res = evolve(fam, path, psi0, n_steps=n_steps, track_level=0, drift_tol=np.inf)
    states, w_norms, beta, gamma = evolve_per_step(fam, path, psi0, n_steps, 0)
    assert np.max(np.abs(res.states - states)) <= 1e-14
    assert np.max(np.abs(res.w_norms - w_norms)) <= 1e-15
    assert abs(res.dynamical_phase - beta) <= 1e-14
    assert abs(np.angle(np.exp(1j * (res.geometric_phase - gamma)))) <= 1e-14
    assert abs(res.geometric_phase) > 1e-6  # a non-trivial phase is compared


def test_eigensolves_per_chunk(monkeypatch):
    fam = pt_two_level_family()
    path = circle_path([0.15, 0.85], 0.05, 20.0)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    calls, fixes = [], []
    eig = np.linalg.eig

    def counted(a):
        calls.append(np.shape(a))
        return eig(a)

    def counted_gauge_fix(prev, cur):
        fixes.append(np.shape(cur.energies))
        return gauge_fix(prev, cur)

    def no_assignment(*args, **kwargs):
        raise AssertionError("assignment solved on a collision-free loop")

    monkeypatch.setattr(np.linalg, "eig", counted)
    monkeypatch.setattr(dynamics, "gauge_fix", counted_gauge_fix)
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", no_assignment)
    evolve(fam, path, psi0, n_steps=1000, track_level=0)
    assert len(calls) <= 2 * math.ceil(1000 / dynamics._CHUNK) + 2
    assert len(fixes) <= math.ceil(1000 / dynamics._CHUNK)


def test_batched_gauge_fix_matches_gauge_fix():
    fam = pt_two_level_family()
    anchor = biortho_eig(fam([0.3, 0.5]))
    lams = [[0.15, 0.85], [-0.46, 0.32], [0.3, 0.55], [0.32, 0.3], [0.0, 1.2]]
    stack = biortho_eig(fam(lams))
    assign = np.abs(anchor.left.conj().T @ stack.right).argmax(axis=-1)
    collided = [len(set(row)) < 2 for row in assign.tolist()]
    assert any(collided) and not all(collided)  # both routes are compared
    fixed = gauge_fix(anchor, stack)
    for j in range(len(lams)):
        ref = gauge_fix(anchor, stack[j])
        for name in ("energies", "right", "left"):
            assert np.array_equal(getattr(fixed, name)[j], getattr(ref, name)), (j, name)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_evolve_rejects_non_positive_n_steps(n_steps):
    fam = flat_pt_family()
    path = circle_path([0.3, 1.0], 0.05, 1.0)
    with pytest.raises(ValueError, match="n_steps must be positive"):
        evolve(fam, path, [1.0, 0.0], n_steps=n_steps)


@pytest.mark.parametrize("level", [5, -1])
def test_transport_refuses_a_level_out_of_range(level):
    fam = pt_two_level_family()
    path = circle_path([0.15, 0.85], 0.05, 1.0)
    with pytest.raises(ValueError, match=r"level must lie in 0\.\.1"):
        adiabatic_phase(fam, path, n=level, n_steps=20)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    with pytest.raises(ValueError, match=r"level must lie in 0\.\.1"):
        evolve(fam, path, psi0, n_steps=20, track_level=level)


# ----------------------------------------------------- adiabatic phase


def test_adiabatic_phase_requires_closed_path():
    fam = pt_two_level_family()
    path = PathSpec(curve=lambda t: np.array([0.15 + 0.01 * t, 0.85]),
                    duration=1.0, closed=False)
    with pytest.raises(ValueError):
        adiabatic_phase(fam, path, n=0, n_steps=10)
    # declaring the same open path closed does not make it one
    path = PathSpec(curve=path.curve, duration=1.0, closed=True)
    with pytest.raises(ValueError, match="ends differ"):
        adiabatic_phase(fam, path, n=0, n_steps=10)


def test_flat_pt_loop_has_negligible_geometric_phase():
    fam = flat_pt_family()
    path = circle_path([0.3, 1.0], 0.05, 60.0)
    out = adiabatic_phase(fam, path, n=0, n_steps=3600)
    assert abs(out["gamma_line"]) < 1e-6
    assert abs(out["gamma_sim"] - out["gamma_line"]) < 1e-2


def test_adiabatic_phase_matches_loop_product():
    fam = pt_two_level_family()
    path = circle_path([0.15, 0.85], 0.05, 120.0)
    out = adiabatic_phase(fam, path, n=0, n_steps=7200)
    assert abs(out["gamma_line"]) > 1e-4  # non-trivial curvature enclosed
    assert abs(out["gamma_sim"] - out["gamma_line"]) < 1e-2
    res = out["result"]
    assert np.max(np.abs(res.w_norms - res.w_norms[0])) < 1e-8
    # total = dynamical + geometric split identity
    assert abs(res.total_phase - res.dynamical_phase - res.geometric_phase) < 1e-12


def test_adiabatic_phase_evaluates_a_batched_family_once_per_stack():
    calls = []
    fam = pt_two_level_family()

    def evaluate(points):
        calls.append(len(points))
        return fam.evaluate(points)

    counted = dataclasses.replace(fam, evaluate=evaluate)
    path = circle_path([0.15, 0.85], 0.05, 8.0)
    out = adiabatic_phase(counted, path, n=0, n_steps=256)
    ref = adiabatic_phase(fam, path, n=0, n_steps=256)
    assert np.array_equal(out["result"].states, ref["result"].states)
    assert (out["gamma_sim"], out["gamma_line"]) == (ref["gamma_sim"], ref["gamma_line"])
    # Per chunk: generator times, their K probes and the record times; then
    # the start point twice, its K probes and the loop vertices. Called
    # per point, the same transport makes one call per point, ~7 per step.
    chunks = math.ceil(256 / dynamics._CHUNK)
    assert len(calls) <= 3 * chunks + 4
    assert sum(calls) > 7 * 256
