import dataclasses
import math

import numpy as np
import pytest

from ptqgt import (
    AmbiguousMatching,
    HamiltonianFamily,
    NonFinite,
    NotAdiabatic,
    PathSpec,
    StepTooLarge,
    adiabatic_phase,
    biortho,
    biortho_eig,
    build_W,
    dynamics,
    evolve,
    geometry,
    o_operators,
)
from ptqgt.cli import _circle_path
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


@pytest.mark.parametrize("times", [[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0], [np.nan, 1.0, 2.0]])
def test_pathspec_from_samples_refuses_times_not_starting_at_zero(times):
    # [1, 2, 3] used to give duration 3 with the path resting at its first
    # point over [0, 1)
    with pytest.raises(ValueError, match="times must start at 0"):
        PathSpec.from_samples(times, np.zeros((3, 2)))


@pytest.mark.parametrize("points", [np.zeros(3), np.zeros((3, 2, 1))], ids=["1-D", "3-D"])
def test_pathspec_from_samples_refuses_points_not_t_by_d(points):
    # 1-D points used to fail only at the first ``at``, inside numpy
    with pytest.raises(ValueError, match=r"points must have shape \(T, d\)"):
        PathSpec.from_samples([0.0, 1.0, 2.0], points)


def test_pathspec_at_returns_a_fresh_array():
    shared = np.array([0.15, 0.85])
    path = PathSpec(curve=lambda t: shared, duration=1.0)
    point = path.at(0.5)
    point[...] = 7.0
    assert np.array_equal(path.at(0.5), [0.15, 0.85])


def test_pathspec_at_array_matches_per_time():
    times = np.linspace(0.0, 2.0, 21)
    paths = [circle_path([0.15, 0.85], 0.05, 2.0),
             _circle_path(np.array([0.15, 0.85, 0.3]), 0.05, 2.0),
             PathSpec.from_samples(times, np.stack([times, times**2, -times], axis=1))]
    ts = np.array([[0.0, 0.37, 1.05], [1.5, 1.999, 2.0]])
    for path in paths:
        for t in (ts, ts[1], np.asarray(ts[0, 1])):
            points = path.at(t)
            assert points.shape == t.shape + path.at(0.0).shape
            for idx in np.ndindex(t.shape):
                # bit for bit; a numpy scalar gives the curve the bits a float does
                assert points[idx].tobytes() == path.at(float(t[idx])).tobytes()
                assert points[idx].tobytes() == np.asarray(path.curve(t[idx]), float).tobytes()


def test_pathspec_at_hands_curve_python_floats():
    seen = []

    def curve(t):
        seen.append(t)
        return np.array([t, 2.0 * t])

    path = PathSpec(curve=curve, duration=2.0)
    path.at(0.5)
    path.at(np.float64(0.25))
    path.at(np.array([[0.0, 1.0], [1.5, 2.0]]))
    path.at(np.arange(3, dtype=np.float32))
    assert len(seen) == 9
    assert all(type(t) is float for t in seen)


def test_pathspec_at_refuses_a_ragged_curve():
    path = PathSpec(curve=lambda t: np.zeros(2 if t < 0.5 else 3), duration=1.0)
    assert path.at(np.array([0.1, 0.2])).shape == (2, 2)
    with pytest.raises(ValueError):
        path.at(np.array([0.1, 0.9]))


# -------------------------------------------------------------- k field


def evolve_k(monkeypatch, family, path, n_steps):
    """K at every node t_k = k dt/2, k = 0..2n, as ``evolve`` forms it,
    recorded from its calls to _o_b. The walk starts in level 0 and its
    drift is not checked: in the broken phase W is no conserved metric."""
    recorded = []
    o_b = geometry._o_b
    monkeypatch.setattr(dynamics, "_o_b", lambda eig, c: recorded.append(o_b(eig, c))
                        or recorded[-1])
    psi0 = biortho_eig(family(path.at(0.0))).right[:, 0]
    evolve(family, path, psi0, n_steps=n_steps, drift_tol=np.inf)
    n = family.dim_hilbert
    k_nodes = np.concatenate([k.reshape(-1, n, n) for k in recorded])
    assert len(k_nodes) == 2 * n_steps + 1
    return k_nodes


def node_times(path, n_steps):
    """evolve's nodes t_k = k dt/2, the last held to the duration."""
    return np.minimum(np.arange(2 * n_steps + 1) * (0.5 * path.duration / n_steps),
                      path.duration)


def test_k_field_zero_for_hermitian_family(monkeypatch):
    fam = spin_half_family()
    path = circle_path([0.0, 0.0], 0.3, 10.0)

    def curve3(t):
        xy = path.at(t)
        return np.array([xy[0], xy[1], 1.0])

    path3 = PathSpec(curve=curve3, duration=10.0, closed=True)
    k = evolve_k(monkeypatch, fam, path3, 100)
    assert np.max(np.abs(k)) < 1e-8


def test_k_field_zero_for_static_path(monkeypatch):
    fam = flat_pt_family()
    path = PathSpec(curve=lambda t: np.array([0.3, 1.0]), duration=5.0)
    k = evolve_k(monkeypatch, fam, path, 50)
    assert np.max(np.abs(k)) < 1e-10


def differenced_k_field(family, path, t, dt_probe):
    """K from the metrics themselves: -1/2 Psi Psi^dag dW/dt, with dW/dt the
    central difference of W at t +/- dt_probe (interior times only)."""
    t = np.asarray(t, dtype=float)
    w_plus = build_W(biortho_eig(family(path.at(t + dt_probe))))
    w_minus = build_W(biortho_eig(family(path.at(t - dt_probe))))
    psi = biortho_eig(family(path.at(t))).right
    return -0.5 * psi @ np.swapaxes(psi.conj(), -1, -2) @ ((w_plus - w_minus) / (2.0 * dt_probe))


@pytest.mark.parametrize("family, center, unbroken", [
    (pt_two_level_family(), [0.15, 0.85], True),
    (pt_two_level_family(), [0.55, 0.3], False),
    (flat_pt_family(), [0.3, 1.0], True),
], ids=["pt_two_level-unbroken", "pt_two_level-broken", "flat_pt"])
def test_k_field_matches_differenced_metric(monkeypatch, family, center, unbroken):
    # a 1.0-long arc of the tau = 10 circle at 5000 steps: nodes spaced 1e-4,
    # the interior ones compared with W differenced at +/- 1e-4
    arc = PathSpec(curve=circle_path(center, 0.05, 10.0).curve, duration=1.0)
    n_steps = 5000
    t = node_times(arc, n_steps)[1:-1]
    eig = biortho_eig(family(arc.at(t)))
    assert np.all(eig.unbroken == unbroken)
    k = evolve_k(monkeypatch, family, arc, n_steps)[1:-1]
    assert np.max(np.abs(k)) > 1e-2  # non-trivial on this path
    assert np.max(np.abs(k - differenced_k_field(family, arc, t, 1e-4))) <= 1e-10


@pytest.mark.parametrize("last", [2, 4, 5, 9])
def test_stencil_rows_are_exact_for_their_polynomials(last):
    # five-node rows are exact for quartics, the three-node ones (a grid of
    # three nodes) for quadratics; every window lies inside the grid
    k = np.arange(last + 1)
    first, rows = dynamics._stencil(k, last)
    m = rows.shape[-1]
    assert np.all(first >= 0) and np.all(first + m - 1 <= last)
    assert np.all(first <= k) and np.all(k < first + m)
    degree = m - 1
    coef = np.arange(1.0, degree + 2.0)
    f = np.polynomial.polynomial.polyval(k, coef)
    exact = np.polynomial.polynomial.polyval(k, np.polynomial.polynomial.polyder(coef))
    h_dot = (rows * f[first[:, None] + np.arange(m)]).sum(-1)
    assert np.max(np.abs(h_dot - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_k_field_w_hermiticity(monkeypatch):
    # W K = -1/2 dW/dt is Hermitian, so W K - K^dag W = 0 at every node
    fam = flat_pt_family()
    path = circle_path([0.3, 1.0], 0.1, 10.0)
    k = evolve_k(monkeypatch, fam, path, 1000)
    w = build_W(biortho_eig(fam(path.at(node_times(path, 1000)))))
    x = w @ k
    assert np.max(np.abs(x - np.swapaxes(x.conj(), -1, -2))) < 1e-8
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
        w = build_W(biortho_eig(fam(path.at(res0.times[i]))))
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


def test_evolution_converges_with_the_stencil_k():
    # on a non-Hermitian loop K comes from an O(dt^4) difference stencil;
    # the end state still converges as the step shrinks
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
    # the first step whose latest stencil node, i dt + 2 dt (the window of
    # its step end reaches two nodes of dt/2 past it), has s < s_min
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
    latest = np.arange(n_steps) * dt + 2.0 * dt
    expected = next(i for i, t in enumerate(latest) if base.at(t)[1] < s_min)
    # step i samples the nodes from (i - 0.5) dt to (i + 2) dt in order
    assert round(seen[-1] / dt) - 2 == expected


def nan_near(s_nan, width):
    """pt_two_level, but all-NaN wherever |s - s_nan| < width."""
    fam = pt_two_level_family()

    def evaluate(lam):
        h = fam(lam)
        return np.full_like(h, np.nan) if abs(lam[1] - s_nan) < width else h

    return HamiltonianFamily(dim_hilbert=2, dim_param=2, evaluate=evaluate)


def test_non_finite_raised_at_a_probe_time_only(monkeypatch):
    # s = 0.85 + 0.01 t; evolve (dt 0.1) samples its nodes, the multiples
    # of 0.05. A NaN near the node 0.4 lies in the stencils of the step
    # ending at 0.3, so NonFinite comes before the step whose instant it
    # is: no eigensolve sees it
    path = PathSpec(curve=lambda t: np.array([0.15, 0.85 + 0.01 * t]), duration=1.0)
    fam = nan_near(0.85 + 0.01 * 0.4, 0.01 * 0.002)
    solved = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: solved.append(a.copy()) or eig(a))
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    with pytest.raises(NonFinite):
        evolve(fam, path, psi0, n_steps=10)
    assert len(solved) == 4  # psi0, evolve's start and steps 0 and 1
    assert all(np.isfinite(a).all() for a in solved)


@pytest.mark.parametrize("drift_tol", [1e-6, np.inf])
@pytest.mark.parametrize("track_level", [None, 0])
def test_evolve_refuses_a_non_finite_w_norm(track_level, drift_tol):
    # H of order 1e160 overflows the RK4 states to NaN within 10 steps; a
    # NaN drift is above no tolerance, so it needs a check of its own
    fam = pt_two_level_family()
    huge = dataclasses.replace(fam, evaluate=lambda lam: 1e160 * fam.evaluate(lam))
    path = circle_path([0.15, 0.85], 0.05, 5.0)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    with np.errstate(all="ignore"), pytest.raises(StepTooLarge, match="not finite"):
        evolve(huge, path, psi0, n_steps=10, track_level=track_level, drift_tol=drift_tol)


def k_at_node(family, path, n_steps, node):
    """K at the node t_k = k dt/2 of evolve's grid on its own: the node's
    stencil row over H at its window, one eigensolve, no stacking."""
    h = 0.5 * path.duration / n_steps
    first, row = dynamics._stencil(node, 2 * n_steps)
    window = family(path.at(np.minimum((first + np.arange(len(row))) * h, path.duration)))
    eig = biortho_eig(window[node - first])
    h_dot = np.einsum("j,jab->ab", row, window) / h
    return geometry._o_b(eig, geometry._gauged_coefficients(eig, h_dot[None])[0])


def evolve_per_step(family, path, psi0, n_steps, level):
    """Reference RK4: K node by node, no stacking; the phase of each
    record is arg(<Phi_n(0)|Psi_n(t)><Phi_n(t)|psi>), which no gauge of
    the record's eigensystem changes."""
    psi = np.asarray(psi0, dtype=complex).copy()
    dt = path.duration / n_steps
    anchor = biortho_eig(family(path.at(0.0)))
    states, w_norms, alphas, energies = [], [], [], []

    def record(t, psi):
        eig = biortho_eig(family(path.at(t)))
        states.append(psi)
        w_norms.append(float(np.vdot(psi, build_W(eig) @ psi).real))
        alphas.append(np.angle(np.vdot(anchor.left[:, level], eig.right[:, level])
                               * np.vdot(eig.left[:, level], psi)))
        energies.append(eig.energies[level].real)

    record(0.0, psi)
    k_start = k_at_node(family, path, n_steps, 0)
    for i in range(n_steps):
        t, mid = i * dt, (i + 0.5) * dt
        # the half-step and step end, nodes 2i + 1 and 2i + 2 of the grid
        # k dt/2; (i + 1) dt is also the next step's start
        k_mid = k_at_node(family, path, n_steps, 2 * i + 1)
        k_end = k_at_node(family, path, n_steps, 2 * i + 2)
        g_mid = -1j * family(path.at(mid)) + k_mid
        k1 = (-1j * family(path.at(t)) + k_start) @ psi
        k2 = g_mid @ (psi + 0.5 * dt * k1)
        k3 = g_mid @ (psi + 0.5 * dt * k2)
        k4 = (-1j * family(path.at((i + 1) * dt)) + k_end) @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k_start = k_end
        record((i + 1) * dt, psi)
    beta = -np.trapezoid(energies, np.arange(n_steps + 1) * dt)
    total = np.unwrap(alphas)[-1] - alphas[0]
    return np.array(states), np.array(w_norms), beta, total - beta


# the shortest grids (one step takes the three-node rows, two steps the
# five-node ones at every node) on a 0.5-long arc, then the whole loop
PER_STEP_CASES = [(1, 0.5), (2, 0.5), (100, 5.0), (biortho._per_stack(2) + 3, 5.0)]


@pytest.mark.parametrize("n_steps, duration", PER_STEP_CASES,
                         ids=[str(n) for n, _ in PER_STEP_CASES])
def test_evolve_matches_per_step_reference(n_steps, duration):
    fam = pt_two_level_family()
    path = PathSpec(curve=circle_path([0.15, 0.85], 0.05, 5.0).curve, duration=duration)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    res = evolve(fam, path, psi0, n_steps=n_steps, track_level=0, drift_tol=np.inf)
    states, w_norms, beta, gamma = evolve_per_step(fam, path, psi0, n_steps, 0)
    assert np.max(np.abs(res.states - states)) <= 1e-14
    assert np.max(np.abs(res.w_norms - w_norms)) <= 1e-15
    assert abs(res.dynamical_phase - beta) <= 1e-14
    assert abs(np.angle(np.exp(1j * (res.geometric_phase - gamma)))) <= 1e-14
    assert abs(res.geometric_phase) > 1e-6  # a non-trivial phase is compared


def test_evolve_k_matches_the_exact_velocity_o_b(monkeypatch):
    # K as evolve forms it, recorded at every node, against O_B along the
    # closed-form velocity, dH/dt = sum_mu deriv_mu lam'^mu, at the path's
    # ends and at the half-step tau/2 + dt/2. Bound set before measuring:
    # 1e-12, some 100x the rounding of a five-node stencil at h = dt/2
    # (~eps |H| / h); a one-sided probe difference at the ends is O(h)
    # The public route to K at any point, sum_mu o_operators(lam).o_b[mu]
    # lam'^mu, is compared too: C is linear in dH, so it is the same O_B
    fam = pt_two_level_family()
    center, radius, tau, n_steps = np.array([0.15, 0.85]), 0.05, 100.0, 6000
    path = circle_path(center, radius, tau)
    k_nodes = evolve_k(monkeypatch, fam, path, n_steps)
    dt = tau / n_steps
    omega = 2.0 * np.pi / tau
    for node in (0, n_steps + 1, 2 * n_steps):
        t = node * 0.5 * dt
        lam = path.at(t)
        velocity = radius * omega * np.array([-np.sin(omega * t), np.cos(omega * t)])
        h_dot = sum(fam.deriv(lam, mu) * velocity[mu] for mu in range(2))
        eig = biortho_eig(fam(lam))
        exact = geometry._o_b(eig, geometry._gauged_coefficients(eig, h_dot[None])[0])
        public = np.einsum("aij,a->ij", o_operators(fam, lam).o_b, velocity)
        assert np.max(np.abs(exact)) > 1e-4  # a non-trivial K is compared
        assert np.max(np.abs(k_nodes[node] - exact)) <= 1e-12
        assert np.max(np.abs(k_nodes[node] - public)) <= 1e-12


@pytest.mark.parametrize("count", [600, 6001])
def test_from_samples_loop_transports_within_the_gate(count):
    # linear interpolation through `count` samples of a circle, one per ten
    # steps or one per step: its velocity jumps at every sample, which a
    # five-node stencil smooths over, so the W-norm keeps the criterion-6
    # gate of 1e-8 (probes at dt/10 around each time drifted 3.8e-7 at 600
    # samples)
    fam = pt_two_level_family()
    center, radius, tau, n_steps = np.array([0.15, 0.9]), 0.05, 100.0, 6000
    times = np.linspace(0.0, tau, count)
    angle = 2.0 * np.pi * times / tau
    points = center + radius * np.stack([np.cos(angle), np.sin(angle)], axis=1)
    points[-1] = points[0]
    path = PathSpec.from_samples(times, points, closed=True)
    res = adiabatic_phase(fam, path, n=0, n_steps=n_steps)["result"]
    assert np.max(np.abs(res.w_norms - res.w_norms[0])) <= 1e-8


def test_evolve_leaves_psi0_untouched_and_repeats_bitwise():
    fam = pt_two_level_family()
    path = circle_path([0.15, 0.85], 0.05, 5.0)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    kept = psi0.copy()
    runs = [evolve(fam, path, psi0, n_steps=biortho._per_stack(2) + 3, track_level=0)
            for _ in range(2)]
    assert psi0.tobytes() == kept.tobytes()
    assert runs[0].states[0].tobytes() == kept.tobytes()
    assert not np.shares_memory(runs[0].states, runs[1].states)
    for field in ("states", "w_norms", "times"):
        assert getattr(runs[0], field).tobytes() == getattr(runs[1], field).tobytes()
    assert runs[0].geometric_phase == runs[1].geometric_phase


def test_eigensolves_per_chunk(monkeypatch):
    # one stacked eigensolve at t = 0 and one per chunk, each over the
    # instants alone: 1 matrix at t = 0 and 2 per step (half-step and step
    # end). The path is sampled at grid nodes t_k = k dt/2 only: nodes 0..4
    # for the start's stencil; then the chunks cover all 2n + 1 nodes once,
    # plus the two nodes on each side of a chunk boundary that the stencils
    # of both neighbours reach
    fam = pt_two_level_family()
    base = circle_path([0.15, 0.85], 0.05, 20.0)
    samples, calls = [], []
    eig = np.linalg.eig

    def curve(t):
        samples.append(t)
        return base.curve(t)

    def counted(a):
        calls.append(np.shape(a))
        return eig(a)

    path = PathSpec(curve=curve, duration=base.duration, closed=True)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    samples.clear()
    monkeypatch.setattr(np.linalg, "eig", counted)
    n_steps = 1000
    evolve(fam, path, psi0, n_steps=n_steps, track_level=0)
    chunks = math.ceil(n_steps / biortho._per_stack(2))
    assert len(calls) == chunks + 1
    assert sum(math.prod(shape[:-2]) for shape in calls) == 2 * n_steps + 1
    assert len(samples) == 5 + (2 * n_steps + 1) + 4 * (chunks - 1)
    grid = np.arange(2 * n_steps + 1) * (0.5 * path.duration / n_steps)
    assert set(samples) <= set(grid.tolist()) | {path.duration}


@pytest.mark.parametrize("z", [0.1, 0.5])
def test_spin_half_cone_transport_gives_half_the_solid_angle(z):
    # Berry's spin-1/2: the field (cos wt, sin wt, z) runs around a cone of
    # half-angle theta, and the lower level gains pi (1 - cos theta). The
    # adiabatic error is O(1/tau); bounds set before measuring: gamma_sim
    # within 8/tau of it, the error at least halving from tau = 100 to 400,
    # and gamma_line (512 vertices) within 1e-4.
    fam = spin_half_family()
    exact = np.pi * (1.0 - z / np.hypot(1.0, z))
    errors = []
    for tau in (100.0, 400.0):
        path = _circle_path(np.array([0.0, 0.0, z]), 1.0, tau)
        out = adiabatic_phase(fam, path, n=0, n_steps=int(60 * tau))
        errors.append(abs(out["gamma_sim"] - exact))
        assert errors[-1] <= 8.0 / tau
        assert abs(out["gamma_line"] - exact) <= 1e-4
    assert errors[1] <= 0.5 * errors[0]


def test_open_path_to_the_flipped_field_has_no_geometric_phase():
    # the field turns from +z to -z through +x, so the lower level ends as
    # the spin state orthogonal to its start: <Phi_0(0)|Psi_0(tau)> vanishes
    # and no phase relates the ends
    fam = spin_half_family()
    path = PathSpec(curve=lambda t: np.array([np.sin(np.pi * t / 50.0), 0.0,
                                              np.cos(np.pi * t / 50.0)]), duration=50.0)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    with pytest.raises(AmbiguousMatching, match="no overlap with its start"):
        evolve(fam, path, psi0, n_steps=3000, track_level=0)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_evolve_rejects_non_positive_n_steps(n_steps):
    fam = flat_pt_family()
    path = circle_path([0.3, 1.0], 0.05, 1.0)
    with pytest.raises(ValueError, match="n_steps must be positive"):
        evolve(fam, path, [1.0, 0.0], n_steps=n_steps)


@pytest.mark.parametrize("psi0", [np.ones(3), np.eye(2), 1.0], ids=["length-3", "2x2", "scalar"])
def test_evolve_refuses_a_psi0_of_the_wrong_shape(psi0):
    # these ended in numpy's broadcast ValueError, "could not broadcast" and
    # an IndexError; now refused before the family is called
    fam = pt_two_level_family()
    calls = []
    counted = dataclasses.replace(fam, evaluate=lambda lam: calls.append(lam) or fam.evaluate(lam))
    path = circle_path([0.15, 0.85], 0.05, 1.0)
    with pytest.raises(ValueError, match=r"psi0 must have shape \(2,\)"):
        evolve(counted, path, psi0, n_steps=10)
    assert calls == []


@pytest.mark.parametrize("n_steps", [2.5, 10.0, True, np.float64(20.0)])
def test_transport_refuses_a_non_integer_n_steps(n_steps):
    fam = pt_two_level_family()
    path = circle_path([0.15, 0.85], 0.05, 1.0)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        evolve(fam, path, psi0, n_steps=n_steps)
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        adiabatic_phase(fam, path, n=0, n_steps=n_steps)


def test_evolve_takes_a_numpy_integer_n_steps():
    fam = pt_two_level_family()
    path = circle_path([0.15, 0.85], 0.05, 1.0)
    psi0 = biortho_eig(fam(path.at(0.0))).right[:, 0]
    ref = evolve(fam, path, psi0, n_steps=200)
    out = evolve(fam, path, psi0, n_steps=np.int64(200))
    assert np.array_equal(out.states, ref.states)


@pytest.mark.parametrize("duration", [np.nan, np.inf])
def test_pathspec_refuses_a_non_finite_duration(duration):
    with pytest.raises(ValueError, match="duration must be positive and finite"):
        PathSpec(curve=lambda t: np.zeros(2), duration=duration)


@pytest.mark.parametrize("drift_tol", [float("nan"), np.float64("nan")],
                         ids=["float", "float64"])
def test_evolve_refuses_a_nan_drift_tol(drift_tol):
    # a NaN tolerance would make every drift comparison false, so the
    # check would pass silently; np.inf switches it off on purpose
    fam = flat_pt_family()
    path = circle_path([0.3, 1.0], 0.05, 1.0)
    with pytest.raises(ValueError, match="drift_tol must not be NaN"):
        evolve(fam, path, [1.0, 0.0], n_steps=10, drift_tol=drift_tol)


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

    points = []

    def evaluate_point(lam):
        points.append(lam)
        return fam.evaluate(lam[None])[0]

    counted = dataclasses.replace(fam, evaluate=evaluate)
    per_point = dataclasses.replace(fam, evaluate=evaluate_point, batched=False,
                                    derivative=None)
    path = circle_path([0.15, 0.85], 0.05, 8.0)
    n_steps = 2 * biortho._per_stack(2)  # two chunks of 256 steps
    out = adiabatic_phase(counted, path, n=0, n_steps=n_steps)
    ref = adiabatic_phase(fam, path, n=0, n_steps=n_steps)
    adiabatic_phase(per_point, path, n=0, n_steps=n_steps)
    assert np.array_equal(out["result"].states, ref["result"].states)
    assert (out["gamma_sim"], out["gamma_line"]) == (ref["gamma_sim"], ref["gamma_line"])
    # One call per chunk for its half-steps, step ends and the nodes around
    # them its stencils reach; then adiabatic_phase's start point, evolve's
    # start with its stencil and the loop vertices. Called per point, the
    # same transport makes one call per point: 2 per step and 4 per chunk
    # boundary, plus the start, its stencil and the loop vertices.
    assert len(calls) <= 3 * 2 + 4
    assert sum(calls) == len(points)
